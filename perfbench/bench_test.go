package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestTailIsHighestPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 39)
	for i := range xs {
		xs[i] = float64(39 - i) // descending: tail must sort
	}
	v, pct := tail(xs)
	if v != 29 || pct != 100*29.0/39 {
		t.Fatalf("39 samples: tail = %v at p%v, want the 29th smallest (29) at p%v", v, pct, 100*29.0/39)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailBeyond {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailBeyond)
	}

	xs = make([]float64, 96)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); v != 85 || pct != 100*86.0/96 {
		t.Fatalf("96 samples: tail = %v at p%v, want 85 at p%v", v, pct, 100*86.0/96)
	}

	// Too few samples for any percentile to have ten beyond it: the
	// maximum, reported as the 100th percentile.
	if v, pct := tail([]float64{3, 1, 2}); v != 3 || pct != 100 {
		t.Fatalf("3 samples: tail = %v at p%v, want 3 at p100", v, pct)
	}
	if v, pct := tail([]float64{4.5}); v != 4.5 || pct != 100 {
		t.Fatalf("1 sample: tail = %v at p%v, want 4.5 at p100", v, pct)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median of odd count = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median of even count = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{layer: "workload", id: 1, start: at(0), end: at(100)},
		// two overlapping jobs on parallel workers: union [10, 60)
		{layer: "harness", id: 2, parent: 1, start: at(10), end: at(50)},
		{layer: "harness", id: 3, parent: 1, start: at(30), end: at(60)},
		// a nested network span inside job 2, and one sticking out of
		// its parent, which counts only up to the parent's end
		{layer: "network", id: 4, parent: 2, start: at(20), end: at(30)},
		{layer: "network", id: 5, parent: 3, start: at(55), end: at(70)},
		// a separate root
		{layer: "checkpoint", id: 6, start: at(100), end: at(110)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"workload":   50 * time.Millisecond, // 100 - 50 covered by the union of its jobs
		"harness":    (40 - 10 + 30 - 5) * time.Millisecond,
		"network":    25 * time.Millisecond,
		"checkpoint": 10 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
}

// metricName is the grammar every reported metric name follows: a
// letter or digit, then at most 63 letters, digits, '_', '.' and '-'.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metricUnit is the grammar of a metric's unit.
var metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"wall_s", "network.ns_per_router_cycle.spec-vc", "9lives", "a"} {
		if !metricName.MatchString(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_lead", ".lead", "-lead", "has space", "slash/no", "ünits", string(long)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(d.name) || !metricUnit.MatchString(d.unit) {
			t.Errorf("metric %q unit %q breaks the grammar", d.name, d.unit)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
}

// benchmarkFile mirrors BENCHMARK.json's fixed schema; decoding rejects
// any key it does not name.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONNamesEveryWorkloadAndMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"perfbench"}) || len(bf.Command) == 0 {
		t.Fatalf("command %q, paths %q", bf.Command, bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Fatalf("run_seconds %d out of 1..60", bf.RunSeconds)
	}

	var names []string
	for _, w := range bf.Workloads {
		if _, err := lookup(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload %q: %v", w.Name, err)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: why must be 1..200 characters", w.Name)
		}
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}

	hasSetup := false
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v out of (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], benchmark %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}
