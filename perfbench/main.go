// Command perfbench is the routersim benchmark. It runs one named
// workload through the public routersim facade for a fixed time, checks
// every simulated output, and prints its metrics, the last line being
// one JSON object:
//
//	perfbench --workload fig13 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off; with --trace 1 it reports the per-layer metrics of a
// traced run and writes the spans as Chrome trace-event JSON under
// .bench_build/perfbench/. METRICS.md describes every metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"routersim"
	"routersim/internal/network"
)

// outDir holds everything a run leaves behind, relative to the root of
// the checkout it runs in.
var outDir = filepath.Join(".bench_build", "perfbench")

// setupPerBatch is how many times set-up is timed before each timed
// batch. Spreading the repetitions over the whole run keeps one slow
// moment of a shared host from setting their median.
const setupPerBatch = 3

func main() {
	name := flag.String("workload", "", "workload: fig13 or sweep-matrix")
	seed := flag.Int64("seed", -1, "workload seed (negative: the workload's default seed, at which its pins apply)")
	secs := flag.Float64("seconds", 20, "how long to measure, in seconds")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.Parse()
	runtime.GOMAXPROCS(workers)

	w, err := lookup(*name)
	if err != nil || *traced < 0 || *traced > 1 || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", *name, *traced, *secs)
		flag.Usage()
		os.Exit(2)
	}
	s := w.defaultSeed
	if *seed >= 0 {
		s = uint64(*seed)
	}
	r := &runner{w: w, seed: s, seconds: time.Duration(*secs * float64(time.Second)), traced: *traced == 1}
	if err := r.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// runner measures one workload at one seed.
type runner struct {
	w       *workload
	seed    uint64
	seconds time.Duration
	traced  bool

	e    *env
	jobs []job
	ref  batch
	keys []string // reference job-result digests

	attempted, failed int
	problems          []string
	values            map[string]float64
}

func (r *runner) run() error {
	runDir := filepath.Join(outDir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(runDir)
	r.e = &env{dir: runDir}
	r.values = make(map[string]float64)

	var err error
	if r.jobs, err = r.w.jobs(r.seed); err != nil {
		return err
	}
	fmt.Printf("workload %s, seed %d, %d jobs, %s per run\n", r.w.name, r.seed, len(r.jobs), r.seconds)
	if r.seed == r.w.defaultSeed {
		fmt.Println("default seed: pinned outputs are checked")
	}
	if err := r.reference(); err != nil {
		return err
	}
	if r.traced {
		err = r.tracedRun()
	} else {
		err = r.untracedRun()
	}
	if err != nil {
		return err
	}
	return r.report()
}

// reference runs the workload once, untimed, to warm caches and lazy
// set-up and to fix the outputs every timed batch must reproduce.
func (r *runner) reference() error {
	var (
		b   batch
		err error
	)
	start := time.Now()
	defer func() { fmt.Printf("reference batch: %.3f s, untimed\n", time.Since(start).Seconds()) }()
	if r.w.reference != nil {
		b, err = r.w.reference(r.seed)
	} else {
		b, err = r.w.run(r.e, r.seed, nil, 0)
	}
	if err != nil {
		return fmt.Errorf("reference batch: %w", err)
	}
	if len(b.jobs) != len(r.jobs) {
		return fmt.Errorf("reference batch ran %d jobs, the workload has %d", len(b.jobs), len(r.jobs))
	}
	r.ref, r.keys = b, b.jobKeys()
	r.check(&b)
	return nil
}

// check counts a batch's jobs as attempted and fails each one that
// errored, differs from the reference, or fails a batch-level check or
// a pin (at the default seed).
func (r *runner) check(b *batch) {
	fails := make(map[int]string)
	keys := b.jobKeys()
	for i, o := range b.jobs {
		switch {
		case o.err != "":
			fails[i] = o.err
		case o.res == nil:
			fails[i] = "no result"
		case keys[i] != r.keys[i]:
			fails[i] = "result differs from the reference batch"
		}
	}
	for i, msg := range b.failed {
		fails[i] = msg
	}
	if r.seed == r.w.defaultSeed {
		for i, msg := range r.w.pins(b) {
			fails[i] = msg
		}
	}
	r.attempted += len(b.jobs)
	r.fail(fails)
}

func (r *runner) fail(fails map[int]string) {
	r.failed += len(fails)
	idx := make([]int, 0, len(fails))
	for i := range fails {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for _, i := range idx {
		r.problems = append(r.problems, fmt.Sprintf("job %d (%s): %s", i, r.jobs[i].label, fails[i]))
	}
}

// timedBatch runs one batch after a full garbage collection, so no batch
// pays for an earlier one's garbage, and records the batch's CPU and
// memory use outside its timing.
func (r *runner) timedBatch(tr *tracer) (batch, error) {
	runtime.GC()
	before := sampleRuntime()
	root := tr.reserve("workload", r.w.name, 0, -1, time.Now())
	b, err := r.w.run(r.e, r.seed, tr, root)
	tr.finish(root, b.start.Add(b.wall))
	b.use = sampleRuntime().since(before)
	if err != nil {
		return b, err
	}
	r.check(&b)
	return b, nil
}

func (r *runner) untracedRun() error {
	var setups, walls, rates, p50s, tails []float64
	var n int
	var pct float64
	deadline := time.Now().Add(r.seconds)
	for len(walls) == 0 || time.Now().Before(deadline) {
		for k := 0; k < setupPerBatch; k++ {
			s, err := r.timeSetup()
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
		b, err := r.timedBatch(nil)
		if err != nil {
			return err
		}
		walls = append(walls, b.wall.Seconds())
		rates = append(rates, float64(b.routerCycles(r.jobs, ""))/b.wall.Seconds())
		jw := jobWalls(&b)
		p50s = append(p50s, median(jw))
		var t float64
		t, pct = tail(jw)
		tails = append(tails, t)
		n = len(jw)
	}
	fmt.Printf("%d timed batches; job_tail_s is the p%.1f of the %d jobs of a batch; medians over batches\n", len(walls), pct, n)
	fmt.Printf("batch wall_s: %.4g\n", walls)
	fmt.Printf("setup_s: %.4g\n", setups)
	r.values["wall_s"] = median(walls)
	r.values["router_cycles_per_s"] = median(rates)
	r.values["job_p50_s"] = median(p50s)
	r.values["job_tail_s"] = median(tails)
	r.values["setup_s"] = median(setups)
	r.values["peak_rss_mb"] = peakRSSMB()
	r.workCounts(r.ref.storeBytes)
	return nil
}

// jobWalls returns a batch's per-job host times in seconds.
func jobWalls(b *batch) []float64 {
	out := make([]float64, len(b.jobs))
	for i, o := range b.jobs {
		out[i] = o.wall.Seconds()
	}
	return out
}

// timeSetup times building every network of the workload with
// network.New, plus opening a fresh checkpoint store where the workload
// uses one, and returns the time in seconds.
func (r *runner) timeSetup() (float64, error) {
	runtime.GC() // start from a clean heap, as a batch does
	var total time.Duration
	for _, j := range r.jobs {
		t := time.Now()
		net, err := network.New(j.cfg.Net)
		total += time.Since(t)
		if err != nil {
			return 0, fmt.Errorf("set-up of %s: %w", j.label, err)
		}
		net.Close()
	}
	if r.w.usesStore {
		dir := r.e.freshDir()
		t := time.Now()
		_, err := routersim.OpenCheckpointStore(dir)
		total += time.Since(t)
		if err != nil {
			return 0, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, err
		}
	}
	return total.Seconds(), nil
}

// runtimeSample is the process's cumulative CPU and memory counters.
type runtimeSample struct {
	at      time.Time
	cpu     time.Duration
	alloc   uint64
	gcs     uint32
	gcPause uint64
}

func sampleRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return runtimeSample{at: time.Now(), cpu: cpu, alloc: ms.TotalAlloc, gcs: ms.NumGC, gcPause: ms.PauseTotalNs}
}

// runtimeUse is the process's CPU and memory use over one batch.
type runtimeUse struct {
	cpuUtil  float64 // CPU time ÷ (wall × GOMAXPROCS)
	allocMB  float64
	gcs      float64
	gcPauseS float64
}

func (s runtimeSample) since(before runtimeSample) runtimeUse {
	wall := s.at.Sub(before.at)
	return runtimeUse{
		cpuUtil:  float64(s.cpu-before.cpu) / float64(wall) / float64(runtime.GOMAXPROCS(0)),
		allocMB:  float64(s.alloc-before.alloc) / (1 << 20),
		gcs:      float64(s.gcs - before.gcs),
		gcPauseS: float64(s.gcPause-before.gcPause) / 1e9,
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (r *runner) tracedRun() error {
	var (
		kept                          *tracer
		first                         batch
		plain, traced                 []float64
		cpuUtil, allocMB, gcs, pauses []float64
	)
	// Pairs of one untraced and one traced batch, alternating which runs
	// first so neither side always follows the other.
	deadline := time.Now().Add(r.seconds)
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		for side := 0; side < 2; side++ {
			if (pair+side)%2 == 0 {
				b, err := r.timedBatch(nil)
				if err != nil {
					return err
				}
				plain = append(plain, b.wall.Seconds())
				cpuUtil = append(cpuUtil, b.use.cpuUtil)
				allocMB = append(allocMB, b.use.allocMB)
				gcs = append(gcs, b.use.gcs)
				pauses = append(pauses, b.use.gcPauseS)
				continue
			}
			tr := &tracer{}
			b, err := r.timedBatch(tr)
			if err != nil {
				return err
			}
			traced = append(traced, b.wall.Seconds())
			if kept == nil {
				kept, first = tr, b
			}
		}
	}
	fmt.Printf("%d untraced and %d traced batches\n", len(plain), len(traced))
	v := r.values
	v["trace.overhead_frac"] = median(traced)/median(plain) - 1
	v["network.cpu_util"] = median(cpuUtil)
	v["runtime.alloc_mb"] = median(allocMB)
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.gc_pause_s"] = median(pauses)

	var busy float64
	for _, w := range jobWalls(&first) {
		busy += w
	}
	v["harness.job_busy_s"] = busy
	v["harness.worker_util"] = busy / (first.wall.Seconds() * workers)

	// Layer passes over the first traced batch's jobs, under one root.
	root := kept.reserve("replay", "layer passes", 0, -1, time.Now())
	st, fails := replayNetwork(r.jobs, &first, kept, root)
	r.attempted += len(r.jobs)
	r.fail(fails)
	v["network.ns_per_router_cycle"] = float64(st.stepTime.Nanoseconds()) / float64(first.routerCycles(r.jobs, ""))
	for _, k := range []string{"wormhole", "vc", "spec-vc"} {
		v["network.ns_per_router_cycle."+k] = 0 // kind absent from the workload
		if rc := first.routerCycles(r.jobs, k); rc > 0 {
			v["network.ns_per_router_cycle."+k] = float64(st.kindTime[k].Nanoseconds()) / float64(rc)
		}
	}
	v["network.step_p50_us"] = median(st.stepUs)
	v["network.step_tail_us"], _ = tail(st.stepUs)
	v["network.active_frac"] = st.activeSum / float64(st.cycles)
	v["network.stepped_cycles"] = float64(st.stepped)
	v["network.new_s"] = st.newTime.Seconds()
	v["network.flits"] = float64(st.flits)

	var cs checkpointStats
	if r.w.usesStore {
		var err error
		cs, err = replayCheckpoint(r.e.freshDir(), &first, kept, root)
		if err != nil {
			return fmt.Errorf("checkpoint pass: %w", err)
		}
		r.attempted += cs.puts
		r.fail(cs.readbackFail)
	}
	v["checkpoint.puts"] = float64(cs.puts)
	v["checkpoint.gets"] = float64(cs.gets)
	v["checkpoint.bytes"] = float64(cs.bytes)
	v["checkpoint.put_s"] = cs.putT.Seconds()
	v["checkpoint.get_s"] = cs.getT.Seconds()
	v["harness.write_json_s"] = cs.jsonT.Seconds()
	v["harness.json_bytes"] = float64(cs.jsonBytes)

	t := time.Now()
	for k, ns := range kernelTimes(shapesOf(r.jobs), r.seed) {
		v[k] = ns
	}
	kept.add("kernel", "allocator and arbiter kernels", root, -1, t, time.Now())
	kept.finish(root, time.Now())

	r.workCounts(cs.bytes)
	return r.writeTrace(kept.spans)
}

// workCounts records the exact work counts of the reference batch, and
// the paper errors, which are as exact.
func (r *runner) workCounts(storeBytes int64) {
	var cycles, tagged, capped int64
	for _, o := range r.ref.jobs {
		if o.res == nil {
			continue
		}
		cycles += o.res.Cycles
		tagged += int64(o.res.Tagged)
		if o.res.Latency.Censored > 0 {
			capped++
		}
	}
	v := r.values
	v["sim.cycles"] = float64(cycles)
	v["sim.tagged_packets"] = float64(tagged)
	v["sim.capped_jobs"] = float64(capped)
	v["network.router_cycles"] = float64(r.ref.routerCycles(r.jobs, ""))
	v["harness.jobs"] = float64(len(r.jobs))
	v["checkpoint.bytes"] = float64(storeBytes)
	v["paper_sat_err_pts"], v["paper_zeroload_err_cycles"] = 0, 0 // no paper figure
	if r.w.paper != nil {
		v["paper_sat_err_pts"], v["paper_zeroload_err_cycles"] = r.w.paper(&r.ref)
	}
}

func (r *runner) writeTrace(spans []span) error {
	self := selfTimes(spans)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Println("self time by layer (traced batch and layer passes):")
	for _, l := range layers {
		fmt.Printf("  %-12s %10.4f s\n", l, self[l].Seconds())
	}
	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.seed))
	fmt.Printf("%d spans written to %s\n", len(spans), path)
	return writeChrome(path, spans)
}

// report checks work counts against earlier runs, prints every metric
// with its unit, and ends with the one-line JSON result.
func (r *runner) report() error {
	src, err := sourceDigest(".")
	if err != nil {
		return err
	}
	diffs, err := checkLedger(filepath.Join(outDir, "work"), r.w.name, r.seed, src, r.values)
	if err != nil {
		return err
	}
	for _, d := range diffs {
		r.problems = append(r.problems, "work count changed between runs of the same code: "+d)
	}
	r.values["failed_frac"] = float64(r.failed) / float64(r.attempted)
	defs := endToEnd
	if r.traced {
		defs = perLayer
	}
	metrics, err := selectMetrics(defs, r.values)
	if err != nil {
		return err
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %14.6g %s\n", d.name, metrics[d.name].Value, d.unit)
	}
	if !r.traced {
		// Correctness and accuracy figures that can read 0, so they are
		// per-layer metrics; printed here too, outside the result.
		for _, name := range []string{"failed_frac", "paper_sat_err_pts", "paper_zeroload_err_cycles"} {
			fmt.Printf("  %-40s %14.6g\n", name, r.values[name])
		}
	}
	fmt.Printf("  %-40s %14d of %d jobs\n", "failed", r.failed, r.attempted)
	for i, p := range r.problems {
		if i == 20 {
			fmt.Printf("... and %d more problems\n", len(r.problems)-i)
			break
		}
		fmt.Println("PROBLEM:", p)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
