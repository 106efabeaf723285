package main

import (
	"fmt"
	"sort"
)

// tailBeyond is how many samples must lie above the reported tail
// percentile: the tail is the highest percentile that still has at least
// this many samples beyond it, so it rests on more than one or two
// observations.
const tailBeyond = 10

// median returns the median of xs (the mean of the middle two for an
// even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that has at least
// tailBeyond samples above it, and that percentile: with n sorted
// samples it is the (n-tailBeyond)-th smallest, the
// 100·(n-tailBeyond)/n percentile. With n ≤ tailBeyond no sample
// qualifies, and tail reports the maximum as the 100th percentile.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= tailBeyond {
		return s[n-1], 100
	}
	rank := n - tailBeyond // 1-based rank of the tail sample
	return s[rank-1], 100 * float64(rank) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the benchmark reports and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd lists the untraced run's metrics, in report order.
var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"router_cycles_per_s", "1/s"},
	{"job_p50_s", "s"},
	{"job_tail_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the traced run's metrics, in report order.
var perLayer = []metricDef{
	{"arbiter.matrix_grant_ns", "ns"},
	{"allocator.vc_alloc_ns", "ns"},
	{"allocator.separable_switch_ns", "ns"},
	{"allocator.spec_switch_ns", "ns"},
	{"allocator.wormhole_arb_ns", "ns"},
	{"network.ns_per_router_cycle", "ns"},
	{"network.ns_per_router_cycle.wormhole", "ns"},
	{"network.ns_per_router_cycle.vc", "ns"},
	{"network.ns_per_router_cycle.spec-vc", "ns"},
	{"network.step_p50_us", "us"},
	{"network.step_tail_us", "us"},
	{"network.active_frac", "frac"},
	{"network.stepped_cycles", "count"},
	{"network.router_cycles", "count"},
	{"network.cpu_util", "frac"},
	{"network.new_s", "s"},
	{"network.flits", "count"},
	{"harness.jobs", "count"},
	{"harness.job_busy_s", "s"},
	{"harness.worker_util", "frac"},
	{"checkpoint.puts", "count"},
	{"checkpoint.gets", "count"},
	{"checkpoint.bytes", "bytes"},
	{"checkpoint.put_s", "s"},
	{"checkpoint.get_s", "s"},
	{"harness.write_json_s", "s"},
	{"harness.json_bytes", "bytes"},
	{"sim.cycles", "count"},
	{"sim.tagged_packets", "count"},
	{"sim.capped_jobs", "count"},
	{"runtime.alloc_mb", "MB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"trace.overhead_frac", "frac"},
	{"failed_frac", "frac"},
	{"paper_sat_err_pts", "pts"},
	{"paper_zeroload_err_cycles", "cycles"},
}

// selectMetrics picks the listed metrics from values, failing when one is
// missing: a report never silently omits a metric it promises.
func selectMetrics(defs []metricDef, values map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}
