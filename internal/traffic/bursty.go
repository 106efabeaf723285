package traffic

import (
	"fmt"
	"math"

	"routersim/internal/rng"
)

// This file adds the bursty arrival processes: an on/off MMPP (Markov-
// modulated Poisson process, the standard two-state burst model) and a
// batch-arrival process. Both are built so that every random draw
// happens at an *event* boundary — a state transition, an injection, a
// batch release — never per cycle. That is what makes them parkable:
// AdvanceToInjection can jump from event to event executing exactly the
// draws per-cycle Tick would, so the active-set scheduler skips the
// idle gaps while the injection schedule (and the RNG stream) stays
// bit-identical to the full-scan oracle's.

// geometric samples a geometric dwell: the number of cycles (>= 1)
// until the first success of a per-cycle Bernoulli(p) trial, by
// inverting the geometric CDF on one uniform draw. p >= 1 collapses to
// 1 cycle; the caller guards p <= 0 (the event never fires).
func geometric(p float64, r *rng.RNG) int64 {
	if p >= 1 {
		r.Float64() // keep the draw count independent of p
		return 1
	}
	u := r.Float64()
	// ceil(log(1-u)/log(1-p)) via floor+1; u in [0,1) keeps log finite.
	k := int64(math.Log(1-u)/math.Log(1-p)) + 1
	if k < 1 {
		k = 1
	}
	return k
}

// MMPP is a two-state on/off Markov-modulated injection process: the
// source alternates between an ON state that injects with per-cycle
// probability pOn and a silent OFF state. State holding times are
// geometric with the configured means, so the process is the discrete-
// time MMPP-2 burst model. The long-run mean rate equals the configured
// rate: pOn = rate × (on+off)/on.
//
// All draws (state holding times, within-burst gaps) are pre-sampled
// geometrics consumed at event boundaries, so MMPP supports exact
// parking via AdvanceToInjection.
type MMPP struct {
	pOn      float64 // injection probability per ON cycle
	pExitOn  float64 // 1/mean ON dwell
	pExitOff float64 // 1/mean OFF dwell
	r        *rng.RNG

	on    bool
	dwell int64 // remaining cycles in the current state (>= 1)
	gap   int64 // remaining ON cycles until the next injection (-1: never)
}

// NewMMPP returns an on/off MMPP injector with the given long-run mean
// rate (packets/cycle) and mean ON/OFF dwell times (cycles, each >= 1).
// The required ON-state injection probability rate×(on+off)/on must not
// exceed 1 — a rate the duty cycle cannot deliver is an error, not a
// silent clamp.
func NewMMPP(rate, onMean, offMean float64, r *rng.RNG) (*MMPP, error) {
	if rate < 0 {
		return nil, fmt.Errorf("traffic: mmpp: negative rate %v", rate)
	}
	if onMean < 1 || offMean < 1 {
		return nil, fmt.Errorf("traffic: mmpp: mean dwell times must be >= 1 cycle, got on=%v off=%v", onMean, offMean)
	}
	pOn := rate * (onMean + offMean) / onMean
	if pOn > 1 {
		return nil, fmt.Errorf("traffic: mmpp: rate %v needs ON-state injection probability %.3g > 1 (burst duty cycle %v/%v cannot deliver it)",
			rate, pOn, onMean, onMean+offMean)
	}
	m := &MMPP{pOn: pOn, pExitOn: 1 / onMean, pExitOff: 1 / offMean, r: r}
	// Start OFF: the first burst begins after one geometric OFF dwell,
	// which also decorrelates sources (each has its own RNG stream).
	m.on = false
	m.dwell = geometric(m.pExitOff, r)
	m.gap = -1
	return m, nil
}

// enterOn transitions OFF→ON, drawing the ON holding time and then the
// first within-burst injection gap (that draw order is part of the
// schedule contract shared with AdvanceToInjection).
func (m *MMPP) enterOn() {
	m.on = true
	m.dwell = geometric(m.pExitOn, m.r)
	if m.pOn > 0 {
		m.gap = geometric(m.pOn, m.r)
	} else {
		m.gap = -1
	}
}

// enterOff transitions ON→OFF, drawing the OFF holding time. Any
// remaining injection gap is discarded: the next burst draws a fresh
// one (the gap is memoryless, so the process is still exactly MMPP).
func (m *MMPP) enterOff() {
	m.on = false
	m.dwell = geometric(m.pExitOff, m.r)
	m.gap = -1
}

// Tick implements Injector.
func (m *MMPP) Tick() int {
	if !m.on {
		m.dwell--
		if m.dwell == 0 {
			m.enterOn()
		}
		return 0
	}
	inj := 0
	if m.gap > 0 {
		m.gap--
		if m.gap == 0 {
			inj = 1
			m.gap = geometric(m.pOn, m.r)
		}
	}
	m.dwell--
	if m.dwell == 0 {
		m.enterOff()
	}
	return inj
}

// AdvanceToInjection runs Tick until it returns nonzero and reports the
// number of ticks consumed (>= 1; the last one is the injection), or -1
// — consuming nothing — if the injector can never fire (zero rate). It
// jumps event to event (state transitions and injections), performing
// exactly the draws per-cycle ticking would in the same order, so a
// parked source's schedule is bit-identical to full-scan stepping.
func (m *MMPP) AdvanceToInjection() int64 {
	if m.pOn <= 0 {
		return -1
	}
	var k int64
	for {
		if !m.on {
			k += m.dwell
			m.enterOn()
			continue
		}
		if m.gap <= m.dwell {
			// The next injection lands before (or on) the state exit.
			k += m.gap
			m.dwell -= m.gap
			m.gap = geometric(m.pOn, m.r)
			if m.dwell == 0 {
				m.enterOff()
			}
			return k
		}
		// The burst ends first; the partial gap is discarded exactly as
		// Tick's enterOff does.
		k += m.dwell
		m.enterOff()
	}
}

// Batch is a batch-arrival process: at geometrically spaced release
// events the source emits a whole batch of Size packets at once (think
// cache-line or DMA bursts). The per-event probability is rate/Size, so
// the long-run mean rate equals the configured rate.
type Batch struct {
	size int
	q    float64 // release probability per cycle
	gap  int64   // cycles until the next release
	r    *rng.RNG
}

// NewBatch returns a batch-arrival injector with the given long-run
// mean rate (packets/cycle) and batch size. The release probability
// rate/size must not exceed 1.
func NewBatch(rate float64, size int, r *rng.RNG) (*Batch, error) {
	if rate < 0 {
		return nil, fmt.Errorf("traffic: batch: negative rate %v", rate)
	}
	if size < 1 {
		return nil, fmt.Errorf("traffic: batch: size %d; need >= 1", size)
	}
	q := rate / float64(size)
	if q > 1 {
		return nil, fmt.Errorf("traffic: batch: rate %v exceeds one size-%d batch per cycle", rate, size)
	}
	b := &Batch{size: size, q: q, r: r}
	if q > 0 {
		b.gap = geometric(q, r)
	} else {
		b.gap = -1
	}
	return b, nil
}

// Tick implements Injector: 0 on quiet cycles, the whole batch size on
// release cycles.
func (b *Batch) Tick() int {
	if b.gap < 0 {
		return 0
	}
	b.gap--
	if b.gap == 0 {
		b.gap = geometric(b.q, b.r)
		return b.size
	}
	return 0
}

// AdvanceToInjection consumes the gap to the next release in one batch
// and returns it (>= 1), or -1 if the injector can never fire (zero
// rate). The release's Tick would return the batch size; callers use
// PendingCount to learn it.
func (b *Batch) AdvanceToInjection() int64 {
	if b.gap < 0 {
		return -1
	}
	k := b.gap
	b.gap = geometric(b.q, b.r)
	return k
}

// PendingCount reports how many packets the injection reached by the
// last AdvanceToInjection carries — the whole batch.
func (b *Batch) PendingCount() int { return b.size }
