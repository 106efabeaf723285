package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"routersim"
	"routersim/internal/allocator"
	"routersim/internal/arbiter"
	"routersim/internal/checkpoint"
	"routersim/internal/flit"
	"routersim/internal/harness"
	"routersim/internal/network"
	"routersim/internal/rng"
	"routersim/internal/stats"
)

// stepChunk is how many Network.Step calls one timed chunk of the
// network replay covers. The active fraction is sampled between chunks,
// outside their timing, and stands for the chunk's stepped cycles.
const stepChunk = 64

// replayStats accumulates the network layer's numbers over a workload's
// replayed jobs.
type replayStats struct {
	newTime   time.Duration
	stepTime  time.Duration
	stepped   int64
	flits     int64
	activeSum float64   // Σ active fraction × stepped cycles, per chunk
	cycles    int64     // simulated cycles covered, skipped ones included
	stepUs    []float64 // per chunk: µs per Step
	kindTime  map[string]time.Duration
}

// replayNetwork rebuilds each job's network from its SimConfig and steps
// it for exactly the cycles the run took, skipping quiescent spans with
// NextDue as the simulation loop does. It fails a job whose replayed
// measured-window flit rate is not bit-identical to the run's
// latency.accepted.
func replayNetwork(jobs []job, b *batch, tr *tracer, parent int) (replayStats, map[int]string) {
	st := replayStats{kindTime: map[string]time.Duration{}}
	fails := make(map[int]string)
	for i, j := range jobs {
		res := b.jobs[i].res
		if res == nil {
			continue // the run already failed this job
		}
		start := time.Now()
		span := tr.reserve("network", fmt.Sprintf("replay job %d", i), parent, i, start)
		acc, err := replayJob(j, res.Cycles, &st, tr, span, i)
		tr.finish(span, time.Now())
		switch {
		case err != nil:
			fails[i] = "replay: " + err.Error()
		case math.Float64bits(acc) != math.Float64bits(res.Latency.Accepted):
			fails[i] = fmt.Sprintf("replayed accepted rate %.17g, run reported %.17g", acc, res.Latency.Accepted)
		}
	}
	return st, fails
}

func replayJob(j job, cycles int64, st *replayStats, tr *tracer, parent, idx int) (float64, error) {
	t := time.Now()
	net, err := network.New(j.cfg.Net)
	d := time.Since(t)
	tr.add("network", "network.New", parent, idx, t, t.Add(d))
	st.newTime += d
	if err != nil {
		return 0, err
	}
	defer net.Close()

	th := stats.NewThroughput(net.Nodes())
	net.OnFlitEjected = func(_ flit.Flit, now int64) {
		st.flits++
		th.Eject(now)
	}
	warm := j.cfg.WarmupCycles
	var stepTime time.Duration
	for now := int64(0); now < cycles; {
		from, active := now, activeFrac(net)
		steps := 0
		t := time.Now()
		for ; steps < stepChunk && now < cycles; steps++ {
			if now == warm {
				th.Open(now)
			}
			net.Step(now)
			next := net.NextDue(now)
			if next <= now+1 {
				now++
				continue
			}
			if now < warm && next > warm {
				next = warm // measurement opens on its exact cycle
			}
			if next > cycles {
				next = cycles
			}
			now = next
		}
		d := time.Since(t)
		tr.add("network", "step", parent, idx, t, t.Add(d))
		stepTime += d
		st.stepped += int64(steps)
		// Cycles NextDue skipped are quiescent: no router holds a flit.
		st.activeSum += active * float64(steps)
		st.cycles += now - from
		st.stepUs = append(st.stepUs, float64(d.Nanoseconds())/1e3/float64(steps))
	}
	th.Close(cycles)
	st.stepTime += stepTime
	st.kindTime[j.kind] += stepTime
	return th.FlitsPerNodeCycle(), nil
}

// activeFrac is the fraction of routers holding flits: buffered in an
// input VC, latched for the switch, or in flight on an input wire.
// Credits still in flight do not count; the scheduler drains them
// lazily, so they linger at routers with nothing to do.
func activeFrac(net *network.Network) float64 {
	n := net.Nodes()
	busy := 0
	for id := 0; id < n; id++ {
		if r := net.Router(id); !r.ComputeIdle() || r.InputWireTotal() > 0 {
			busy++
		}
	}
	return float64(busy) / float64(n)
}

// checkpointStats are the checkpoint layer's numbers.
type checkpointStats struct {
	puts, gets   int
	bytes        int64
	putT, getT   time.Duration
	jsonT        time.Duration
	jsonBytes    int
	readbackFail map[int]string
}

// replayCheckpoint stores every cold-pass result of the batch in a fresh
// store, reads each back, and serializes the matrix payload once, timing
// each Put, Get and the JSON write. A result that does not read back
// byte-identical fails its job.
func replayCheckpoint(dir string, b *batch, tr *tracer, parent int) (checkpointStats, error) {
	cs := checkpointStats{readbackFail: make(map[int]string)}
	store, err := routersim.OpenCheckpointStore(dir)
	if err != nil {
		return cs, err
	}
	prJSON, err := json.Marshal(sweepProtocol)
	if err != nil {
		return cs, err
	}
	payloads := make([][]byte, len(b.cold))
	keys := make([][32]byte, len(b.cold))
	for i, r := range b.cold {
		if payloads[i], err = json.Marshal(r); err != nil {
			return cs, err
		}
		scJSON, err := json.Marshal(r.Scenario)
		if err != nil {
			return cs, err
		}
		var seed [8]byte
		binary.BigEndian.PutUint64(seed[:], r.Seed)
		keys[i] = checkpoint.Key([]byte(harness.EngineVersion), scJSON, seed[:], prJSON)
	}
	for i := range b.cold {
		t := time.Now()
		err := store.Put(keys[i], payloads[i])
		d := time.Since(t)
		tr.add("checkpoint", "Put", parent, i, t, t.Add(d))
		if err != nil {
			return cs, err
		}
		cs.puts++
		cs.putT += d
		cs.bytes += int64(len(checkpoint.Encode(payloads[i])))
	}
	for i := range b.cold {
		t := time.Now()
		got, ok, err := store.Get(keys[i])
		d := time.Since(t)
		tr.add("checkpoint", "Get", parent, i, t, t.Add(d))
		if err != nil {
			return cs, err
		}
		cs.gets++
		cs.getT += d
		if !ok || !bytes.Equal(got, payloads[i]) {
			cs.readbackFail[i] = "checkpoint entry did not read back byte-identical"
		}
	}
	var buf bytes.Buffer
	t := time.Now()
	err = routersim.WriteMatrixJSON(&buf, b.cold)
	cs.jsonT = time.Since(t)
	tr.add("harness", "WriteMatrixJSON", parent, -1, t, t.Add(cs.jsonT))
	cs.jsonBytes = buf.Len()
	if err == nil && !bytes.Equal(buf.Bytes(), b.payload) {
		err = fmt.Errorf("re-serialized payload differs from the batch's")
	}
	return cs, err
}

// shape is a router's port × VC count, the size of its allocators.
type shape struct{ p, v int }

// shapesOf returns the distinct port × VC shapes of a workload's
// VC-router jobs.
func shapesOf(jobs []job) []shape {
	seen := make(map[shape]bool)
	var out []shape
	for _, j := range jobs {
		s := shape{j.cfg.Net.Topo.Ports(), j.cfg.Net.Router.VCs}
		if s.v < 2 || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].p < out[k].p })
	return out
}

// kernelReps is how many timed repetitions each kernel timing takes the
// median of; kernelCalls is the number of calls in one repetition.
const (
	kernelReps  = 7
	kernelCalls = 1 << 15
	streamLen   = 1 << 10
)

// kernelTimes times the public Grant and Allocate calls on seeded,
// pre-generated request streams at each shape, in isolation from the
// network: ns per call, averaged over the shapes. They are kernel
// timings, not shares of in-network time.
func kernelTimes(shapes []shape, seed uint64) map[string]float64 {
	out := map[string]float64{}
	for _, s := range shapes {
		r := rng.New(rng.Derive(seed, uint64(s.p*64+s.v)))
		out["arbiter.matrix_grant_ns"] += timeMatrixGrant(s, r)
		out["allocator.vc_alloc_ns"] += timeVCAlloc(s, r)
		out["allocator.separable_switch_ns"] += timeSeparable(s, r)
		out["allocator.spec_switch_ns"] += timeSpeculative(s, r)
		out["allocator.wormhole_arb_ns"] += timeWormhole(s, r)
	}
	for k := range out {
		out[k] /= float64(len(shapes))
	}
	return out
}

// timeCalls runs call(i) kernelCalls times per repetition and returns
// the median ns per call.
func timeCalls(call func(i int)) float64 {
	reps := make([]float64, kernelReps)
	for r := range reps {
		t := time.Now()
		for i := 0; i < kernelCalls; i++ {
			call(i & (streamLen - 1))
		}
		reps[r] = float64(time.Since(t).Nanoseconds()) / kernelCalls
	}
	return median(reps)
}

// timeMatrixGrant times a p:1 matrix arbiter, the output-port arbiter
// of every allocator, on random nonempty request masks.
func timeMatrixGrant(s shape, r *rng.RNG) float64 {
	reqs := make([]uint64, streamLen)
	for i := range reqs {
		reqs[i] = 1 + r.Uint64()%((1<<s.p)-1)
	}
	a := arbiter.NewMatrix(s.p)
	return timeCalls(func(i int) { a.Grant(reqs[i]) })
}

// switchStream draws request sets in which each input VC asks for a
// random output with probability 1/2.
func switchStream(s shape, r *rng.RNG) [][]allocator.SwitchRequest {
	stream := make([][]allocator.SwitchRequest, streamLen)
	for i := range stream {
		for in := 0; in < s.p; in++ {
			for vc := 0; vc < s.v; vc++ {
				if r.Uint64()&1 == 0 {
					stream[i] = append(stream[i], allocator.SwitchRequest{In: in, VC: vc, Out: int(r.Uint64() % uint64(s.p))})
				}
			}
		}
	}
	return stream
}

func timeSeparable(s shape, r *rng.RNG) float64 {
	stream := switchStream(s, r)
	a := allocator.NewSeparableSwitch(s.p, s.v, nil)
	return timeCalls(func(i int) { a.Allocate(stream[i]) })
}

// timeSpeculative splits each request set into non-speculative and
// speculative halves at random, as a router's input VCs are either past
// VC allocation or in it.
func timeSpeculative(s shape, r *rng.RNG) float64 {
	stream := switchStream(s, r)
	ns := make([][]allocator.SwitchRequest, streamLen)
	sp := make([][]allocator.SwitchRequest, streamLen)
	for i, reqs := range stream {
		for _, q := range reqs {
			if r.Uint64()&1 == 0 {
				ns[i] = append(ns[i], q)
			} else {
				sp[i] = append(sp[i], q)
			}
		}
	}
	a := allocator.NewSpeculativeSwitch(s.p, s.v, nil)
	return timeCalls(func(i int) { a.Allocate(ns[i], sp[i]) })
}

// timeVCAlloc draws, per input VC with probability 1/2, a request for a
// random output port with a random nonempty candidate VC mask.
func timeVCAlloc(s shape, r *rng.RNG) float64 {
	stream := make([][]allocator.VCRequest, streamLen)
	for i := range stream {
		for in := 0; in < s.p; in++ {
			for vc := 0; vc < s.v; vc++ {
				if r.Uint64()&1 == 0 {
					stream[i] = append(stream[i], allocator.VCRequest{
						In: in, VC: vc, Out: int(r.Uint64() % uint64(s.p)),
						Candidates: 1 + r.Uint64()%((1<<s.v)-1),
					})
				}
			}
		}
	}
	a := allocator.NewVCAllocator(s.p, s.v, nil)
	return timeCalls(func(i int) { a.Allocate(stream[i]) })
}

// timeWormhole times a wormhole switch arbitration in which each input
// asks for a random output with probability 1/2; every granted port is
// released again, as a tail flit would, so the next call starts free.
func timeWormhole(s shape, r *rng.RNG) float64 {
	stream := make([][]allocator.PortRequest, streamLen)
	for i := range stream {
		for in := 0; in < s.p; in++ {
			if r.Uint64()&1 == 0 {
				stream[i] = append(stream[i], allocator.PortRequest{In: in, Out: int(r.Uint64() % uint64(s.p))})
			}
		}
	}
	a := allocator.NewWormholeSwitch(s.p, nil)
	return timeCalls(func(i int) {
		for _, g := range a.Arbitrate(stream[i]) {
			a.Release(g.Out)
		}
	})
}
