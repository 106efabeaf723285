package network

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"routersim/internal/flit"
	"routersim/internal/router"
	"routersim/internal/topology"
)

// TestShardedMatchesFullScan is the engine's identity matrix: every
// topology family × load regime × shard count must reproduce the
// full-scan oracle's exact event trace — every packet creation, flit
// ejection, and completion at the same cycle in the same order with the
// same packet IDs. Run under -race in CI, this also certifies the
// window barriers.
func TestShardedMatchesFullScan(t *testing.T) {
	specs := []string{"mesh:k=4", "torus", "ring:12", "hypercube:16"}
	loads := []float64{0.1, 0.4, 0.8}
	cycles := simCycles(4000)
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			topo, err := topology.New(spec, 4)
			if err != nil {
				t.Fatal(err)
			}
			for _, load := range loads {
				cfg := Config{
					Topo:          topo,
					Router:        router.DefaultConfig(router.SpeculativeVC),
					Seed:          23,
					InjectionRate: load * topo.UniformCapacity() / 5,
					FullScan:      true,
				}
				ref := eventTrace(t, cfg, cycles)
				if len(ref) == 0 {
					t.Fatalf("load %.1f: no traffic in reference run", load)
				}
				for _, shards := range []int{1, 2, 4} {
					cfg := cfg
					cfg.FullScan = false
					cfg.Shards = shards
					got := eventTrace(t, cfg, cycles)
					compareTraces(t, fmt.Sprintf("load %.1f shards %d", load, shards), ref, got)
				}
			}
		})
	}
}

// TestShardLookaheadHeterogeneous pins the PR 6 interaction: with
// per-router link-delay overrides the window length must come from the
// minimum boundary link delay, not the global FlitDelay. A 4×4 mesh
// split into two row-slabs has its boundary between rows 1 and 2; node
// 4 drives a delay-1 link north across it while every other link runs
// at delay 3, so the lookahead must shrink to 1 — and the event trace
// must still match the serial engine exactly.
func TestShardLookaheadHeterogeneous(t *testing.T) {
	base := Config{
		K:             4,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          7,
		InjectionRate: 0.4 * 0.5 / 5,
		FlitDelay:     3,
		CreditDelay:   3,
	}
	cycles := simCycles(5000)

	// Homogeneous delay-3 boundary: the full window.
	cfg := base
	cfg.Shards = 2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Lookahead(); got != 3 {
		t.Fatalf("homogeneous lookahead = %d, want 3", got)
	}
	net.Close()

	// A delay-1 router on the boundary: the window must shrink.
	cfg = base
	cfg.Shards = 2
	cfg.Overrides = []RouterOverride{{Node: 4, VCs: base.Router.VCs, BufPerVC: base.Router.BufPerVC, LinkDelay: 1}}
	net, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Lookahead(); got != 1 {
		t.Fatalf("heterogeneous lookahead = %d, want 1 (node 4 drives a delay-1 boundary link)", got)
	}
	net.Close()

	// And the shrunk window must stay byte-identical to the serial
	// engine under the same overrides.
	serial := base
	serial.Overrides = cfg.Overrides
	ref := eventTrace(t, serial, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "hetero shards=2", ref, got)
}

// TestShardLookaheadCreditLag pins the PR 8 widening: the credit-side
// dependency bound is CreditDelay + creditLag (the receiver pops its
// credit wires creditLag cycles late), not the bare CreditDelay the
// old engine clamped to. With FlitDelay=4, CreditDelay=2, and a
// credit-processing depth of 3, the bounds are flit 4 vs credit 2+3=5,
// so the window must be exactly 4 — the old min(4, 2)=2 rule would
// have halved it. The widened window must stay byte-identical to the
// serial engine.
func TestShardLookaheadCreditLag(t *testing.T) {
	rc := router.DefaultConfig(router.VirtualChannel)
	rc.CreditProcess = 3
	base := Config{
		K:             4,
		Router:        rc,
		Seed:          11,
		InjectionRate: 0.4 * 0.5 / 5,
		FlitDelay:     4,
		CreditDelay:   2,
	}
	cfg := base
	cfg.Shards = 2
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Lookahead(); got != 4 {
		t.Fatalf("deep-credit-pipeline lookahead = %d, want 4 (flit bound 4 < credit bound 2+3)", got)
	}
	if got := net.PairLookahead(0, 1); got != 4 {
		t.Fatalf("PairLookahead(0,1) = %d, want 4", got)
	}
	net.Close()

	cycles := simCycles(5000)
	ref := eventTrace(t, base, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "credit-lag shards=2", ref, got)
}

// TestShardPairLookaheadHeterogeneous pins the per-pair windows: a
// delay-1 router on ONE boundary of an 8×8 mesh split into four
// row-slab shards must shrink only the pair window it constrains. Node
// 40 (row 5) drives a delay-1 link north across the shard-2/shard-3
// boundary, so that pair's bound drops to 1 while every other pair —
// including the reverse direction across the same boundary — keeps the
// full delay-3 flit bound. The global floor is the min pair bound.
func TestShardPairLookaheadHeterogeneous(t *testing.T) {
	base := Config{
		K:             8,
		Router:        router.DefaultConfig(router.SpeculativeVC),
		Seed:          13,
		InjectionRate: 0.3 * 0.5 / 5,
		FlitDelay:     3,
		CreditDelay:   3,
	}
	cfg := base
	cfg.Shards = 4
	cfg.Overrides = []RouterOverride{{Node: 40, VCs: base.Router.VCs, BufPerVC: base.Router.BufPerVC, LinkDelay: 1}}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Flit bound 3, credit bound 3+creditLag(1) = 4 on unconstrained
	// pairs; the delay-1 link pulls only (2→3) down to 1.
	wants := []struct {
		from, to int
		want     int64
	}{
		{0, 1, 3}, {1, 0, 3}, {1, 2, 3}, {2, 1, 3}, {3, 2, 3},
		{2, 3, 1},
	}
	for _, w := range wants {
		if got := net.PairLookahead(w.from, w.to); got != w.want {
			t.Errorf("PairLookahead(%d,%d) = %d, want %d", w.from, w.to, got, w.want)
		}
	}
	if got := net.PairLookahead(0, 2); got != 0 {
		t.Errorf("PairLookahead(0,2) = %d, want 0 (no shared boundary)", got)
	}
	if got := net.Lookahead(); got != 1 {
		t.Errorf("global lookahead floor = %d, want 1", got)
	}
	net.Close()

	// The per-pair windows must stay byte-identical to the serial
	// engine under the same overrides.
	cycles := simCycles(5000)
	serial := base
	serial.Overrides = cfg.Overrides
	ref := eventTrace(t, serial, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}
	got := eventTrace(t, cfg, cycles)
	compareTraces(t, "per-pair hetero shards=4", ref, got)
}

// TestShardedFastForward drives the sharded engine the way the sim run
// loop does — jumping straight to NextDue over quiescent spans — and
// checks the event trace against the serial every-cycle engine: window
// buffering, barrier wakes, and parked sources must compose with
// quiescence fast-forward.
func TestShardedFastForward(t *testing.T) {
	base := Config{
		K:             4,
		Router:        router.DefaultConfig(router.VirtualChannel),
		Seed:          31,
		InjectionRate: 0.01, // sparse: long quiescent gaps between packets
	}
	cycles := simCycles(30000)
	ref := eventTrace(t, base, cycles)
	if len(ref) == 0 {
		t.Fatal("no traffic in reference run")
	}

	cfg := base
	cfg.Shards = 4
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	var got []string
	hookTrace(net, &got)
	steps := int64(0)
	for now := int64(0); now < cycles; steps++ {
		net.Step(now)
		next := net.NextDue(now)
		if next <= now {
			t.Fatalf("NextDue(%d) = %d; must be in the future", now, next)
		}
		now = next
	}
	compareTraces(t, "fast-forward shards=4", ref, got)
	if steps >= cycles {
		t.Fatalf("no fast-forward happened: %d steps over %d cycles", steps, cycles)
	}
}

// TestShardedConfigValidation pins the sharding knob's error cases.
func TestShardedConfigValidation(t *testing.T) {
	rc := router.DefaultConfig(router.Wormhole)
	cases := []struct {
		name    string
		cfg     Config
		wantSub string
	}{
		{"negative", Config{K: 4, Router: rc, Shards: -1}, "negative shard count"},
		{"fullscan", Config{K: 4, Router: rc, Shards: 2, FullScan: true}, "active-set"},
		{"too many", Config{K: 4, Router: rc, Shards: 17}, "at most one shard per node"},
	}
	for _, c := range cases {
		if _, err := New(c.cfg); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %v does not mention %q", c.name, err, c.wantSub)
		}
	}
}

// TestPartitionNodes pins the partitioner's fast path: slab-aligned
// balanced contiguous parts on multi-dimensional cubes (row slabs are
// the minimal cut there, so the graph partitioner is skipped), and one
// node per shard at the degenerate limit.
func TestPartitionNodes(t *testing.T) {
	mesh, err := topology.New("mesh:k=8", 8)
	if err != nil {
		t.Fatal(err)
	}
	got := partitionNodes(mesh, 4, nil, 1)
	for i, part := range got {
		if len(part) != 16 || int(part[0]) != 16*i || int(part[15]) != 16*i+15 {
			t.Fatalf("mesh:k=8 × 4 part %d = %v, want contiguous slab [%d, %d]", i, part, 16*i, 16*i+15)
		}
	}
	// More shards than slabs: alignment must yield to non-emptiness.
	small, err := topology.New("mesh:k=4", 4)
	if err != nil {
		t.Fatal(err)
	}
	got = partitionNodes(small, 16, nil, 1)
	for i, part := range got {
		if len(part) != 1 || int(part[0]) != i {
			t.Fatalf("mesh:k=4 × 16 part %d = %v: want exactly node %d", i, part, i)
		}
	}
}

// partitionCut counts the directed cut links and sums their 1/delay
// weight for a given partition.
func partitionCut(t *testing.T, topo topology.Topology, parts [][]int32, delayAt []int64, flitDelay int64) (edges int, weight float64) {
	t.Helper()
	at := make([]int32, topo.Nodes())
	seen := make([]bool, topo.Nodes())
	total := 0
	for i, part := range parts {
		for _, id := range part {
			if seen[id] {
				t.Fatalf("node %d assigned twice", id)
			}
			seen[id] = true
			at[id] = int32(i)
			total++
		}
	}
	if total != topo.Nodes() {
		t.Fatalf("partition covers %d of %d nodes", total, topo.Nodes())
	}
	for id := 0; id < topo.Nodes(); id++ {
		for port := 1; port < topo.Ports(); port++ {
			next, _, ok := topo.Neighbor(id, port)
			if !ok {
				continue
			}
			if at[id] != at[int32(next)] {
				edges++
				d := flitDelay
				if delayAt != nil {
					d = delayAt[id]
				}
				weight += 1 / float64(d)
			}
		}
	}
	return edges, weight
}

// contiguousParts is the legacy slab partition (the baseline the graph
// partitioner must never cut more than).
func contiguousParts(topo topology.Topology, shards int) [][]int32 {
	cuts, _ := slabCuts(topo, shards)
	all := make([]int32, topo.Nodes())
	for i := range all {
		all[i] = int32(i)
	}
	parts := make([][]int32, shards)
	for i := 0; i < shards; i++ {
		parts[i] = all[cuts[i]:cuts[i+1]]
	}
	return parts
}

// TestPartitionProperties is the partitioner's property test: on every
// topology family — and a heterogeneous-override graph — every
// partition covers all nodes exactly once, shard sizes balance within
// ±1, every shard's node list is ascending (the replay-merge
// invariant), and the 1/delay-weighted cut never exceeds the
// contiguous-slab cut.
func TestPartitionProperties(t *testing.T) {
	cases := []struct {
		spec    string
		hetero  bool
		shardsN []int
	}{
		{"mesh:k=6", false, []int{2, 3, 4, 7}},
		{"torus:k=4", false, []int{2, 3, 4}},
		{"hypercube:64", false, []int{2, 4, 8, 5}},
		{"ring:24", false, []int{2, 3, 6}},
		{"mesh:k=6", true, []int{2, 3, 4}},
	}
	for _, c := range cases {
		name := c.spec
		if c.hetero {
			name += "/hetero"
		}
		t.Run(name, func(t *testing.T) {
			topo, err := topology.New(c.spec, 4)
			if err != nil {
				t.Fatal(err)
			}
			nodes := topo.Nodes()
			flitDelay := int64(1)
			var delayAt []int64
			if c.hetero {
				// A stripe of slow (delay-4) routers: cutting through
				// their links is cheap, so the weighted objective and
				// the raw edge count genuinely differ.
				delayAt = make([]int64, nodes)
				for id := range delayAt {
					delayAt[id] = 1
					if id%3 == 0 {
						delayAt[id] = 4
					}
				}
			}
			for _, shards := range c.shardsN {
				parts := partitionNodes(topo, shards, delayAt, flitDelay)
				if len(parts) != shards {
					t.Fatalf("%d shards: got %d parts", shards, len(parts))
				}
				lo, hi := nodes/shards, (nodes+shards-1)/shards
				for i, part := range parts {
					if len(part) < lo || len(part) > hi {
						t.Errorf("%d shards: part %d has %d nodes, want %d..%d", shards, i, len(part), lo, hi)
					}
					for j := 1; j < len(part); j++ {
						if part[j] <= part[j-1] {
							t.Fatalf("%d shards: part %d not ascending at %d: %v", shards, i, j, part)
						}
					}
				}
				slab := contiguousParts(topo, shards)
				gotEdges, gotW := partitionCut(t, topo, parts, delayAt, flitDelay)
				slabEdges, slabW := partitionCut(t, topo, slab, delayAt, flitDelay)
				if gotW > slabW {
					t.Errorf("%d shards: weighted cut %.3f exceeds slab cut %.3f", shards, gotW, slabW)
				}
				if delayAt == nil && gotEdges > slabEdges {
					// Uniform delays: weighted cut ∝ edge count, so the
					// edge-count property must hold too.
					t.Errorf("%d shards: cut edges %d exceed slab cut %d", shards, gotEdges, slabEdges)
				}
			}
		})
	}
}

// hookTrace attaches the eventTrace recording callbacks to an existing
// network (for tests that drive Step/NextDue by hand).
func hookTrace(net *Network, trace *[]string) {
	net.OnPacketCreated = func(p *flit.Packet, now int64) {
		*trace = append(*trace, fmt.Sprintf("c %d %d %d %d", now, p.ID, p.Src, p.Dst))
	}
	net.OnFlitEjected = func(f flit.Flit, now int64) {
		*trace = append(*trace, fmt.Sprintf("e %d %d %d", now, f.Pkt.ID, f.Seq))
	}
	net.OnPacketDone = func(p *flit.Packet, now int64) {
		*trace = append(*trace, fmt.Sprintf("d %d %d %d", now, p.ID, p.Latency()))
	}
}

// TestParallelStepperMatchesSerial: the parallel engine (two and four
// shards stepping concurrently) must produce the one-shard engine's
// exact event sequence — every packet creation, flit ejection, and
// completion at the same cycle in the same order — for every router
// kind. Run under -race in CI, this also certifies the shard gang.
func TestParallelStepperMatchesSerial(t *testing.T) {
	kinds := []router.Kind{
		router.Wormhole, router.VirtualChannel, router.SpeculativeVC,
		router.SingleCycleWormhole, router.SingleCycleVC,
	}
	cycles := simCycles(6000)
	for _, kind := range kinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			cfg := Config{K: 4, Router: router.DefaultConfig(kind), Seed: 11, InjectionRate: 0.5 * 1.0 / 5}
			serial := eventTrace(t, cfg, cycles)
			if len(serial) == 0 {
				t.Fatal("no traffic in serial run")
			}
			for _, shards := range []int{2, 4} {
				cfg := cfg
				cfg.Shards = shards
				compareTraces(t, fmt.Sprintf("%d shards", shards), serial, eventTrace(t, cfg, cycles))
			}
		})
	}
}

// TestParallelStepperCrossTopology covers every topology family under
// shard counts whose cuts miss the cube's hyperplanes (3) as well as
// hit them (2), so both the slab partition and the refined graph
// partition with its k-way replay merge must reproduce the one-shard
// engine's exact event trace: the 2-D torus (dateline VC class
// tables), a 3-D torus, a ring, and a hypercube. Run under -race in CI.
func TestParallelStepperCrossTopology(t *testing.T) {
	specs := []string{"torus", "torus:k=3,n=3", "ring:12", "hypercube:16"}
	for _, spec := range specs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			topo, err := topology.New(spec, 4)
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{
				Topo:          topo,
				Router:        router.DefaultConfig(router.SpeculativeVC),
				Seed:          5,
				InjectionRate: 0.4 * topo.UniformCapacity() / 5,
			}
			cycles := simCycles(6000)
			serial := eventTrace(t, cfg, cycles)
			if len(serial) == 0 {
				t.Fatal("no traffic")
			}
			for _, shards := range []int{2, 3} {
				cfg := cfg
				cfg.Shards = shards
				compareTraces(t, fmt.Sprintf("%d shards", shards), serial, eventTrace(t, cfg, cycles))
			}
		})
	}
}

// TestOneShardStartsNoGoroutines pins the inline one-shard path: a
// network built with Shards 0 or 1 must step on the caller's goroutine
// and start no workers, so Close stays optional for it.
func TestOneShardStartsNoGoroutines(t *testing.T) {
	for _, shards := range []int{0, 1} {
		before := runtime.NumGoroutine()
		net, err := New(Config{K: 4, Router: router.DefaultConfig(router.SpeculativeVC),
			Seed: 3, InjectionRate: 0.4 * 1.0 / 5, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		for now := int64(0); now < 300; now++ {
			net.Step(now)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("shards=%d: %d goroutines before New and 300 Steps, %d after", shards, before, after)
		}
	}
}
