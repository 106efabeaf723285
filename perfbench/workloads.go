package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"routersim"
	"routersim/internal/rng"
	"routersim/internal/sim"
)

// workers is the harness worker count and the shard count: at most two
// threads of simulation work, whatever the host has.
const workers = 2

// job is one simulation of a workload, lowered through
// Scenario.SimConfig so the layer passes can rebuild its network.
type job struct {
	label string
	kind  string // router kind name
	cfg   sim.Config
}

func (j job) routers() int { return j.cfg.Net.Topo.Nodes() }

// outcome is one job's result in one batch.
type outcome struct {
	res  *routersim.SimResult // nil when the job failed
	err  string
	wall time.Duration
}

// batch is one complete, closed-loop run of a workload's fixed job set.
type batch struct {
	start time.Time
	wall  time.Duration
	jobs  []outcome
	// failed holds job failures found by the batch itself (resume
	// identity), keyed by job index.
	failed map[int]string
	// payload is the sweep's cold-pass JSON; cold its results.
	payload    []byte
	cold       []routersim.MatrixResult
	storeBytes int64
	use        runtimeUse
}

// jobKeys returns a digest of each job's serialized result ("" for a
// failed job), the unit every determinism check compares.
func (b *batch) jobKeys() []string {
	keys := make([]string, len(b.jobs))
	for i, o := range b.jobs {
		if o.res != nil {
			keys[i] = digestJSON(o.res)
		}
	}
	return keys
}

// routerCycles sums router count × Result.Cycles over the batch's jobs
// of router kind kind, or over all its jobs when kind is "".
func (b *batch) routerCycles(jobs []job, kind string) int64 {
	var rc int64
	for i, o := range b.jobs {
		if o.res != nil && (kind == "" || jobs[i].kind == kind) {
			rc += int64(jobs[i].routers()) * o.res.Cycles
		}
	}
	return rc
}

// env is what a batch needs from the run: a private directory for its
// checkpoint stores, and a counter naming them.
type env struct {
	dir    string
	stores int
}

func (e *env) freshDir() string {
	e.stores++
	return filepath.Join(e.dir, fmt.Sprintf("store-%d", e.stores))
}

// workload is one named, fixed batch of jobs run through the public
// routersim facade on the harness worker pool.
type workload struct {
	name        string
	defaultSeed uint64 // the seed the pins were recorded at
	usesStore   bool   // the workload opens a checkpoint store
	jobs        func(seed uint64) ([]job, error)
	run         func(e *env, seed uint64, tr *tracer, root int) (batch, error)
	// reference, when set, produces the reference batch a different way
	// than run (fig13: through Reproduce); otherwise the first run is it.
	reference func(seed uint64) (batch, error)
	// pins checks a batch against values recorded at defaultSeed and
	// returns failures by job index.
	pins func(b *batch) map[int]string
	// paper, when set, returns the mean absolute error against the
	// paper's published figure (saturation points, zero-load cycles).
	paper func(b *batch) (satPts, zeroCycles float64)
}

var workloads = []*workload{fig13Workload(), sweepWorkload()}

func lookup(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ---------------------------------------------------------------------
// fig13: the paper's Figure 13 with BenchmarkFigure13's protocol.

type fig13Curve struct {
	name, router string
	vcs, buf     int
	// paper's saturation (percent of capacity) and zero-load latency
	paperSat, paperZero float64
}

var fig13Curves = []fig13Curve{
	{"WH (8 bufs)", "wormhole", 1, 8, 40, 29},
	{"VC (2vcsX4bufs)", "vc", 2, 4, 50, 36},
	{"specVC (2vcsX4bufs)", "spec-vc", 2, 4, 55, 30},
}

var fig13Loads = []float64{0.1, 0.2, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8}

var fig13Protocol = routersim.MatrixProtocol{Warmup: 3000, Packets: 3000, Exact: true}

func (c fig13Curve) matrix() routersim.ScenarioMatrix {
	m := routersim.Scenario{
		Router: c.router, Topology: "mesh", K: 8, Pattern: "uniform",
		VCs: c.vcs, BufPerVC: c.buf, PacketSize: 5, CreditDelay: 1,
	}.Matrix()
	m.Loads = fig13Loads
	return m
}

func fig13Workload() *workload {
	w := &workload{name: "fig13", defaultSeed: 1}
	w.jobs = func(seed uint64) ([]job, error) {
		var jobs []job
		for _, c := range fig13Curves {
			js, err := matrixJobs(c.matrix(), seed, fig13Protocol)
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, js...)
		}
		return jobs, nil
	}
	// One batch runs the three curves the way Reproduce does — one
	// matrix per curve on the harness pool, exact latency — but through
	// RunMatrix, whose progress callback exposes per-job times.
	w.run = func(_ *env, seed uint64, tr *tracer, root int) (batch, error) {
		b := batch{start: time.Now(), jobs: make([]outcome, 0, len(fig13Curves)*len(fig13Loads))}
		for _, c := range fig13Curves {
			base := len(b.jobs)
			b.jobs = b.jobs[:base+len(fig13Loads)]
			opts := routersim.MatrixOptions{
				Workers: workers, Seed: seed, Protocol: fig13Protocol,
				Progress: progress(b.jobs[base:], base, tr, root),
			}
			if _, err := routersim.RunMatrix(c.matrix(), opts); err != nil {
				return b, err
			}
		}
		b.wall = time.Since(b.start)
		return b, nil
	}
	w.reference = func(seed uint64) (batch, error) {
		pr := routersim.Protocol{Warmup: fig13Protocol.Warmup, Packets: fig13Protocol.Packets, Loads: fig13Loads, Seed: seed}
		fig, err := routersim.Reproduce("figure13", pr)
		if err != nil {
			return batch{}, err
		}
		var b batch
		for _, c := range fig.Curves {
			for _, p := range c.Points {
				res := p.Result
				b.jobs = append(b.jobs, outcome{res: &res})
			}
		}
		return b, nil
	}
	w.pins = func(b *batch) map[int]string {
		fails := make(map[int]string)
		for ci, c := range fig13Curves {
			sat, zero := fig13Point(b, ci)
			pin := fig13Pins[ci]
			if sat != pin.sat || zero != pin.zero || fmt.Sprintf("%.0f%%/%.2f", 100*sat, zero) != pin.shown {
				for i := range fig13Loads {
					fails[ci*len(fig13Loads)+i] = fmt.Sprintf("%s reads %.0f%%/%.17g, pinned %s (%.17g)", c.name, 100*sat, zero, pin.shown, pin.zero)
				}
			}
		}
		return fails
	}
	w.paper = func(b *batch) (satPts, zeroCycles float64) {
		for ci, c := range fig13Curves {
			sat, zero := fig13Point(b, ci)
			satPts += math.Abs(100*sat - c.paperSat)
			zeroCycles += math.Abs(zero - c.paperZero)
		}
		n := float64(len(fig13Curves))
		return satPts / n, zeroCycles / n
	}
	return w
}

// fig13Point returns curve ci's saturation load and zero-load latency,
// computed as Reproduce computes them. A failed job yields NaN.
func fig13Point(b *batch, ci int) (sat, zero float64) {
	pts := make([]routersim.LoadPoint, len(fig13Loads))
	for i, l := range fig13Loads {
		o := b.jobs[ci*len(fig13Loads)+i]
		if o.res == nil {
			return math.NaN(), math.NaN()
		}
		pts[i] = routersim.LoadPoint{Load: l, Result: *o.res}
	}
	return routersim.SaturationLoad(pts), pts[0].Result.Latency.MeanLatency
}

// ---------------------------------------------------------------------
// sweep-matrix: a 96-job scenario matrix, checkpointed, then resumed.

var sweepMatrix = routersim.ScenarioMatrix{
	Routers:    []string{"vc", "spec-vc"},
	Topologies: []string{"mesh:k=8", "torus:k=4,n=3", "hypercube:64", "ring:16"},
	Patterns:   []string{"uniform", "bit-complement"},
	VCs:        []int{4},
	BufsPerVC:  []int{4},
	Routings:   []string{"dor", "adaptive:minimal"},
	Loads:      []float64{0.1, 0.3, 0.5},
}

var sweepProtocol = routersim.MatrixProtocol{Warmup: 2000, Packets: 1500}

func sweepWorkload() *workload {
	w := &workload{name: "sweep-matrix", defaultSeed: 7, usesStore: true}
	w.jobs = func(seed uint64) ([]job, error) { return matrixJobs(sweepMatrix, seed, sweepProtocol) }
	w.run = func(e *env, seed uint64, tr *tracer, root int) (batch, error) {
		n := len(sweepMatrix.Expand())
		b := batch{start: time.Now(), jobs: make([]outcome, n), failed: make(map[int]string)}
		dir := e.freshDir()
		opts := routersim.MatrixOptions{Workers: workers, Seed: seed, Protocol: sweepProtocol}

		t := time.Now()
		store, err := routersim.OpenCheckpointStore(dir)
		tr.add("checkpoint", "open", root, -1, t, time.Now())
		if err != nil {
			return b, err
		}
		t = time.Now()
		cold := tr.reserve("harness", "cold pass", root, -1, t)
		opts.Progress = progress(b.jobs, 0, tr, cold)
		results, err := routersim.RunMatrixResumable(sweepMatrix, opts, store)
		tr.finish(cold, time.Now())
		if err != nil {
			return b, err
		}
		var coldJSON bytes.Buffer
		t = time.Now()
		err = routersim.WriteMatrixJSON(&coldJSON, results)
		tr.add("harness", "write json", root, -1, t, time.Now())
		if err != nil {
			return b, err
		}

		// Resume pass: a new handle on the same store, as a restarted
		// process would open it. Every job loads; none runs. The harness
		// reports progress only for jobs it runs, so a job reported here
		// missed the store and fails.
		t = time.Now()
		resumed := tr.reserve("harness", "resume pass", root, -1, t)
		store, err = routersim.OpenCheckpointStore(dir)
		if err == nil {
			opts.Progress = func(_, _ int, r routersim.MatrixResult) {
				b.failed[r.Index] = "re-run on resume instead of loaded from the checkpoint store"
			}
			var again []routersim.MatrixResult
			again, err = routersim.RunMatrixResumable(sweepMatrix, opts, store)
			var warmJSON bytes.Buffer
			if err == nil {
				err = routersim.WriteMatrixJSON(&warmJSON, again)
			}
			if err == nil {
				compareResume(&b, results, again, coldJSON.Bytes(), warmJSON.Bytes())
			}
		}
		tr.finish(resumed, time.Now())
		b.wall = time.Since(b.start)
		if err != nil {
			return b, err
		}
		b.payload, b.cold = coldJSON.Bytes(), results
		b.storeBytes, err = dirBytes(dir)
		if err == nil {
			err = os.RemoveAll(dir)
		}
		return b, err
	}
	w.pins = func(b *batch) map[int]string {
		fails := make(map[int]string)
		if got := digestBytes(b.payload); got != sweepPin {
			for i := range b.jobs {
				fails[i] = fmt.Sprintf("payload digest %s, pinned %s", got, sweepPin)
			}
		}
		return fails
	}
	return w
}

// compareResume marks every job whose resumed result is not
// byte-identical to its cold-pass result, and every job when the two
// payloads differ anywhere.
func compareResume(b *batch, cold, again []routersim.MatrixResult, coldJSON, warmJSON []byte) {
	for i := range b.jobs {
		if _, ok := b.failed[i]; ok {
			continue // already failed: re-run instead of loaded
		}
		if i >= len(again) || digestJSON(cold[i]) != digestJSON(again[i]) {
			b.failed[i] = "resumed result differs from the cold pass"
		} else if !bytes.Equal(coldJSON, warmJSON) {
			b.failed[i] = "resumed payload differs from the cold pass"
		}
	}
}

// ---------------------------------------------------------------------
// helpers

// matrixJobs lowers every job of a matrix with the seed the harness
// derives for it from the base seed and the job index.
func matrixJobs(m routersim.ScenarioMatrix, seed uint64, pr routersim.MatrixProtocol) ([]job, error) {
	var jobs []job
	for i, sc := range m.Expand() {
		cfg, err := sc.SimConfig(rng.Derive(seed, uint64(i)), pr)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Label(), err)
		}
		jobs = append(jobs, job{label: sc.Label(), kind: sc.Router, cfg: cfg})
	}
	return jobs, nil
}

// progress returns a harness progress callback that records each
// finished job's outcome into out (indexed by job index) and, when
// tracing, a span for it under parent. The harness never calls it
// concurrently.
func progress(out []outcome, base int, tr *tracer, parent int) func(done, total int, r routersim.MatrixResult) {
	return func(_, _ int, r routersim.MatrixResult) {
		end := time.Now()
		out[r.Index] = outcome{res: r.Result, err: r.Error, wall: r.Wall}
		tr.add("harness", fmt.Sprintf("job %d", base+r.Index), parent, base+r.Index, end.Add(-r.Wall), end)
	}
}

func digestJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unserializable: " + err.Error()
	}
	return digestBytes(b)
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// dirBytes sums the sizes of the regular files in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
