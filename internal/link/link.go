// Package link models the wires between routers: fixed-delay pipelines
// carrying flits downstream and credits upstream. The paper assumes a
// one-cycle flit propagation delay; credit propagation is one cycle
// except in the Figure 18 experiment, where it is four.
package link

import (
	"fmt"
	"math"
)

// neverDue marks the head slot of an empty ring: a single due-time
// compare then rejects the (common) empty-wire Pop without consulting
// the length.
const neverDue = math.MaxInt64

// Wire is a fixed-latency delay line. Items pushed during cycle t become
// deliverable at cycle t+delay. Because the delay is constant, arrivals
// are FIFO-ordered and the implementation is a power-of-two ring of
// pending entries indexed with a mask.
//
// A wire has exactly one producer (Push) and one consumer (Pop), and
// both run in the same network shard: a link between shards is split
// into an outbox and an inbox wire joined by MoveTo at the barriers,
// which is what makes a Wire safe without locks.
type Wire[T any] struct {
	delay int64
	buf   []entry[T]
	mask  int
	head  int
	n     int
}

type entry[T any] struct {
	due int64
	v   T
}

// NewWire returns a wire with the given propagation delay in cycles
// (must be ≥ 1: combinational links would break the simulator's
// registered-stage semantics). Capacity is preallocated from the delay
// and the one-item-per-cycle link bandwidth, so a wire never grows in
// steady state.
func NewWire[T any](delay int) *Wire[T] {
	return NewWireCap[T](delay, 0)
}

// NewWireCap is NewWire with a minimum item capacity for wires whose
// consumer may lag the producer: the active-set scheduler drains a
// sleeping router's (or parked source's) credit wires only at its next
// wake, so those wires are presized to the credit-loop bound (the
// upstream buffer slot count) instead of growing on first sleep.
func NewWireCap[T any](delay, minCapacity int) *Wire[T] {
	if delay < 1 {
		panic(fmt.Sprintf("link: wire delay %d; need >= 1 cycle", delay))
	}
	// At one push per cycle, at most delay+1 items are in flight between
	// a push at t and the drain at t+delay (inclusive).
	capacity := delay + 1
	if minCapacity > capacity {
		capacity = minCapacity
	}
	capacity = ceilPow2(capacity)
	w := &Wire[T]{delay: int64(delay), buf: make([]entry[T], capacity), mask: capacity - 1}
	w.buf[0].due = neverDue
	return w
}

func ceilPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// Delay returns the propagation delay in cycles.
func (w *Wire[T]) Delay() int { return int(w.delay) }

// NextDue returns the arrival cycle of the oldest in-flight item, or
// NeverDue for an empty wire — one load, no branch. The active-set
// scheduler's quiescence check uses it to assert that a wire carrying
// no scheduled wake really holds nothing deliverable.
func (w *Wire[T]) NextDue() int64 { return w.buf[w.head].due }

// NeverDue is the NextDue value of an empty wire.
const NeverDue = int64(neverDue)

// Len returns the number of items in flight.
func (w *Wire[T]) Len() int { return w.n }

// Push places v on the wire during cycle now; it arrives at now+delay.
// Calls must use nondecreasing now values (the simulator advances cycle
// by cycle), which keeps arrivals FIFO-ordered.
func (w *Wire[T]) Push(now int64, v T) {
	if w.n == len(w.buf) {
		w.grow()
	}
	w.buf[(w.head+w.n)&w.mask] = entry[T]{due: now + w.delay, v: v}
	w.n++
}

// grow doubles the ring. Preallocation makes this unreachable for
// bandwidth-1 links whose consumer keeps up (flit wires) or whose
// backlog bound was given to NewWireCap (credit wires under the
// active-set scheduler); it is kept as the safety net for anything
// else.
func (w *Wire[T]) grow() {
	grown := make([]entry[T], 2*len(w.buf))
	for i := 0; i < w.n; i++ {
		grown[i] = w.buf[(w.head+i)&w.mask]
	}
	w.buf = grown
	w.mask = len(grown) - 1
	w.head = 0
}

// MoveTo appends every in-flight item of w to dst, preserving due
// times, and leaves w empty. It is the boundary-exchange primitive of
// a multi-shard network: a shard pushes onto a private outbox wire during
// its window, and the barrier moves the batch onto the receiving
// router's real input wire. The caller guarantees dues are appended in
// nondecreasing order relative to dst's existing tail (the lookahead
// bound: everything already in dst was pushed at least one window
// earlier on the same single-producer link), so FIFO pop order is
// preserved. onItem, when non-nil, observes each moved item's due cycle
// — the barrier uses it to schedule arrival wakes.
func (w *Wire[T]) MoveTo(dst *Wire[T], onItem func(due int64)) {
	for w.n > 0 {
		h := w.head
		e := w.buf[h]
		w.buf[h] = entry[T]{}
		w.head = (h + 1) & w.mask
		w.n--
		if dst.n == len(dst.buf) {
			dst.grow()
		}
		dst.buf[(dst.head+dst.n)&dst.mask] = e
		dst.n++
		if onItem != nil {
			onItem(e.due)
		}
	}
	w.buf[w.head].due = neverDue
}

// Scan calls fn for every in-flight item in FIFO order without
// consuming anything. It is the audit mode's census primitive: the
// invariant checker counts flits and credits still on the wire — due
// or not — without perturbing delivery.
func (w *Wire[T]) Scan(fn func(v T)) {
	for i := 0; i < w.n; i++ {
		fn(w.buf[(w.head+i)&w.mask].v)
	}
}

// Pop removes and returns the oldest item due at or before cycle now.
// It returns ok=false when nothing (more) is due. Draining a wire is a
// loop over Pop, which keeps the hot path free of closure calls:
//
//	for v, ok := w.Pop(now); ok; v, ok = w.Pop(now) { ... }
func (w *Wire[T]) Pop(now int64) (T, bool) {
	h := w.head
	// The empty ring keeps neverDue in its head slot, so one compare
	// covers both "empty" and "nothing due yet".
	if w.buf[h].due > now {
		var zero T
		return zero, false
	}
	v := w.buf[h].v
	w.buf[h] = entry[T]{}
	w.head = (h + 1) & w.mask
	w.n--
	if w.n == 0 {
		w.buf[w.head].due = neverDue
	}
	return v, true
}
