// Package pool provides a bounded worker pool for running n independent
// jobs indexed 0..n-1. Jobs write their results into caller-owned slices
// by index, so the output is deterministic regardless of the worker
// count or goroutine scheduling.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Run invokes fn(i) once for every i in [0, n), using at most workers
// concurrent goroutines (workers <= 0 means GOMAXPROCS). It returns when
// every invocation has finished. fn must be safe to call concurrently
// for distinct indices.
func Run(n, workers int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Gang is a persistent pool of workers for running many small parallel
// phases without per-phase goroutine spawning. The network uses it only
// to dispatch the shards of a multi-shard network, one phase per
// barrier round; a one-shard network steps inline and starts no gang.
// Jobs are claimed from a shared atomic counter, so which worker runs
// which index is scheduling-dependent; callers must make fn(i) write
// only state owned by index i, which is exactly the discipline that
// keeps the sharded engine deterministic.
type Gang struct {
	workers int
	work    chan gangPhase
	// next and wg are reused across phases (Run is not reentrant), so
	// dispatching a phase performs no heap allocation.
	next atomic.Int64
	wg   sync.WaitGroup
}

type gangPhase struct {
	n  int
	fn func(i int)
}

// NewGang starts a gang of the given size (<= 0 means GOMAXPROCS).
// Close must be called to release the workers.
func NewGang(workers int) *Gang {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	g := &Gang{workers: workers, work: make(chan gangPhase)}
	for w := 0; w < workers; w++ {
		go func() {
			for ph := range g.work {
				for {
					i := int(g.next.Add(1)) - 1
					if i >= ph.n {
						break
					}
					ph.fn(i)
				}
				g.wg.Done()
			}
		}()
	}
	return g
}

// Workers returns the gang size.
func (g *Gang) Workers() int { return g.workers }

// Run invokes fn(i) once for every i in [0, n) on the gang's workers and
// returns when all invocations have finished. It must not be called
// concurrently with itself.
func (g *Gang) Run(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	g.next.Store(0)
	g.wg.Add(g.workers)
	ph := gangPhase{n: n, fn: fn}
	for w := 0; w < g.workers; w++ {
		g.work <- ph
	}
	g.wg.Wait()
}

// Close terminates the gang's workers. The gang must not be used after.
func (g *Gang) Close() { close(g.work) }
