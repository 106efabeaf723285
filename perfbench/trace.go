package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from the benchmark's own code around its calls into each layer.
type span struct {
	layer, name string
	id, parent  int // parent 0 = root
	job         int // job index, -1 when the span belongs to no job
	start, end  time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// tracer keeps spans in memory; they are written out once, at the end
// of the run. A nil *tracer records nothing, so untraced code paths
// call the same methods at no cost.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its id (0 on a nil tracer).
func (t *tracer) add(layer, name string, parent, job int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{layer: layer, name: name, id: id, parent: parent, job: job, start: start, end: end})
	return id
}

// reserve allocates the id of a span whose end is not known yet, so
// children can name it as their parent; finish fills it in.
func (t *tracer) reserve(layer, name string, parent, job int, start time.Time) int {
	return t.add(layer, name, parent, job, start, start)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = end
}

// selfTimes returns each layer's self time: the summed duration of its
// spans minus the part of each span that its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.layer] += s.dur() - covered(s, children[s.id])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(kids))
	for _, k := range kids {
		a, b := k.start, k.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			iv = append(iv, [2]time.Time{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	for i := 0; i < len(iv); {
		a, b := iv[i][0], iv[i][1]
		for i++; i < len(iv) && !iv[i][0].After(b); i++ {
			if iv[i][1].After(b) {
				b = iv[i][1]
			}
		}
		total += b.Sub(a)
	}
	return total
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing and Perfetto open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // µs since the first span
	Dur  float64        `json:"dur"` // µs
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON. Spans that
// overlap without nesting (jobs on parallel workers) go to separate
// thread lanes so the viewer's stacking stays correct.
func writeChrome(path string, spans []span) error {
	order := append([]span(nil), spans...)
	sort.SliceStable(order, func(i, j int) bool {
		if !order[i].start.Equal(order[j].start) {
			return order[i].start.Before(order[j].start)
		}
		return order[i].end.After(order[j].end) // enclosing span first
	})
	var t0 time.Time
	if len(order) > 0 {
		t0 = order[0].start
	}
	var lanes [][]span // per lane, the stack of open spans
	events := make([]chromeEvent, 0, len(order))
	for _, s := range order {
		lane := -1
		for l := range lanes {
			st := lanes[l]
			for len(st) > 0 && !st[len(st)-1].end.After(s.start) {
				st = st[:len(st)-1]
			}
			lanes[l] = st
			if lane < 0 && (len(st) == 0 || !st[len(st)-1].end.Before(s.end)) {
				lane = l
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s)
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane,
			Args: map[string]int{"id": s.id, "parent": s.parent, "job": s.job},
		})
	}
	b, err := json.Marshal(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
