// Package trace defines the versioned workload-trace format: a capture
// of every packet injection in a run (cycle, source, destination, size,
// flow id), writable as canonical binary or JSONL and replayable as a
// traffic source. Because the simulator is deterministic, a recorded
// trace replayed at any shard count (or on the full-scan oracle)
// reproduces the original workload byte-identically, which makes any
// captured workload a permanent regression fixture.
//
// # Format versioning
//
// Both encodings carry format version 1. The compatibility rule is
// exact-match: a decoder accepts only the version it was built for, and
// any change to the event layout or semantics bumps the version byte,
// so a trace can never be silently misread. Unknown versions are
// errors, never best-effort parses.
package trace

import (
	"fmt"
	"sort"
)

// FormatVersion is the trace format version this package reads and
// writes. Decoders reject every other version.
const FormatVersion = 1

// Event is one recorded packet injection.
type Event struct {
	// Cycle is the simulation cycle the packet was generated on.
	Cycle int64 `json:"cycle"`
	// Src and Dst are node ids in [0, Nodes).
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
	// Size is the packet length in flits (>= 1).
	Size int32 `json:"size"`
	// Flow is the packet/flow id assigned at creation.
	Flow int64 `json:"flow"`
}

// Trace is a captured workload: the node count it was recorded against
// and every injection in canonical order (non-decreasing cycle, then
// source id — the order a serial step produces them in).
type Trace struct {
	Nodes  int
	Events []Event
}

// Validate checks structural invariants: a positive node count, every
// event in range, and canonical (Cycle, Src) ordering. Decoders call it
// so a malformed file is an error at load time, not a panic at replay
// time.
func (t *Trace) Validate() error {
	if t.Nodes < 1 {
		return fmt.Errorf("trace: node count %d; need >= 1", t.Nodes)
	}
	for i, e := range t.Events {
		if e.Cycle < 0 {
			return fmt.Errorf("trace: event %d: negative cycle %d", i, e.Cycle)
		}
		if e.Src < 0 || int(e.Src) >= t.Nodes {
			return fmt.Errorf("trace: event %d: source %d outside [0,%d)", i, e.Src, t.Nodes)
		}
		if e.Dst < 0 || int(e.Dst) >= t.Nodes {
			return fmt.Errorf("trace: event %d: destination %d outside [0,%d)", i, e.Dst, t.Nodes)
		}
		if e.Size < 1 {
			return fmt.Errorf("trace: event %d: size %d flits; need >= 1", i, e.Size)
		}
		if i > 0 {
			prev := t.Events[i-1]
			if e.Cycle < prev.Cycle || (e.Cycle == prev.Cycle && e.Src < prev.Src) {
				return fmt.Errorf("trace: event %d out of canonical (cycle, src) order", i)
			}
		}
	}
	return nil
}

// Span is the recorded horizon in cycles: last injection cycle + 1
// (0 for an empty trace).
func (t *Trace) Span() int64 {
	if len(t.Events) == 0 {
		return 0
	}
	return t.Events[len(t.Events)-1].Cycle + 1
}

// Rate is the trace's aggregate injection rate in packets per node per
// cycle — the value the measurement layer uses in place of a configured
// injection rate during replay.
func (t *Trace) Rate() float64 {
	span := t.Span()
	if span == 0 || t.Nodes == 0 {
		return 0
	}
	return float64(len(t.Events)) / (float64(span) * float64(t.Nodes))
}

// MeanSize is the mean packet size in flits (0 for an empty trace).
func (t *Trace) MeanSize() float64 {
	if len(t.Events) == 0 {
		return 0
	}
	var sum int64
	for _, e := range t.Events {
		sum += int64(e.Size)
	}
	return float64(sum) / float64(len(t.Events))
}

// Recorder captures injections during a run. The network replays
// packet creations serially, in node order, at every shard count, so
// Record needs no locking and events arrive already in canonical order; Trace sorts defensively
// anyway so a recorder fed out of order still yields a valid trace.
type Recorder struct {
	nodes  int
	events []Event
}

// NewRecorder returns a recorder for a network of the given node count.
func NewRecorder(nodes int) *Recorder {
	return &Recorder{nodes: nodes}
}

// Record appends one injection.
func (r *Recorder) Record(cycle int64, src, dst, size int, flow int64) {
	r.events = append(r.events, Event{Cycle: cycle, Src: int32(src), Dst: int32(dst), Size: int32(size), Flow: flow})
}

// Len reports the number of injections captured so far.
func (r *Recorder) Len() int { return len(r.events) }

// Trace returns the captured workload in canonical order. The recorder
// keeps ownership of the event slice; call once, when recording is done.
func (r *Recorder) Trace() *Trace {
	sort.SliceStable(r.events, func(i, j int) bool {
		if r.events[i].Cycle != r.events[j].Cycle {
			return r.events[i].Cycle < r.events[j].Cycle
		}
		return r.events[i].Src < r.events[j].Src
	})
	return &Trace{Nodes: r.nodes, Events: r.events}
}

// Replayer re-injects one node's slice of a trace. It implements the
// traffic Injector contract plus the optional parking extensions: Tick
// for per-cycle engines, AdvanceToInjection/PendingCount for the
// active-set scheduler, and NextPacket for the recorded (dst, size) of
// each packet. It consumes no RNG, so replay is schedule-exact by
// construction.
type Replayer struct {
	events  []Event // this node's events, cycle-ascending
	cycle   int64   // next cycle Tick will account for
	next    int     // next event to release
	drawPos int     // next event NextPacket describes
	pending int     // events at the cycle the last Advance reached
}

// NewReplayer returns a replayer for the given node's injections. The
// trace must already be validated.
func NewReplayer(t *Trace, node int) *Replayer {
	var evs []Event
	for _, e := range t.Events {
		if int(e.Src) == node {
			evs = append(evs, e)
		}
	}
	return &Replayer{events: evs}
}

// Tick implements Injector: the number of packets recorded at the
// replayer's current cycle.
func (p *Replayer) Tick() int {
	c := p.cycle
	p.cycle++
	n := 0
	for p.next < len(p.events) && p.events[p.next].Cycle == c {
		n++
		p.next++
	}
	return n
}

// AdvanceToInjection jumps to the next recorded injection and returns
// the number of ticks consumed (>= 1; the last lands on the injection
// cycle), or -1 if the node's trace is exhausted. All events sharing
// that cycle are consumed; PendingCount reports how many.
func (p *Replayer) AdvanceToInjection() int64 {
	if p.next >= len(p.events) {
		return -1
	}
	at := p.events[p.next].Cycle
	k := at - p.cycle + 1
	p.cycle = at + 1
	n := 0
	for p.next < len(p.events) && p.events[p.next].Cycle == at {
		n++
		p.next++
	}
	p.pending = n
	return k
}

// PendingCount reports how many packets the injection reached by the
// last AdvanceToInjection carries.
func (p *Replayer) PendingCount() int { return p.pending }

// NextPacket returns the recorded destination and size of the next
// generated packet, in injection order.
func (p *Replayer) NextPacket() (dst, size int) {
	e := p.events[p.drawPos]
	p.drawPos++
	return int(e.Dst), int(e.Size)
}

// Remaining reports how many packets NextPacket has not yet described.
func (p *Replayer) Remaining() int { return len(p.events) - p.drawPos }
