// Mesh32 example: the cycle engine at scale. A 32×32 mesh — 1,024
// routers, 16× the paper's evaluation network — runs a complete
// measurement at three loads, once as one shard stepped on the calling
// goroutine and once split into two shards that step windows
// concurrently between boundary barriers. The shard count is an
// execution choice only: the example checks that every result field is
// identical and reports the wall-clock time of each run. At low load
// the active-set worklists visit only the routers with in-flight work,
// and the quiescence fast-forward skips dead cycles outright.
package main

import (
	"fmt"
	"log"
	"time"

	"routersim"
)

func run(load float64, shards int) (routersim.SimResult, time.Duration) {
	cfg := routersim.DefaultSimConfig(routersim.SpecVCRouter)
	cfg.Topology = "mesh:k=32"
	cfg.LoadFraction = load
	cfg.WarmupCycles = 5000
	cfg.MeasurePackets = 2000
	cfg.Shards = shards
	start := time.Now()
	res, err := routersim.Simulate(cfg)
	if err != nil {
		log.Fatal(err)
	}
	return res, time.Since(start)
}

func main() {
	fmt.Println("32x32 mesh, 1,024 speculative-VC routers, uniform traffic")
	fmt.Println()
	fmt.Printf("%-8s %-10s %10s %12s %12s %12s %9s\n",
		"load", "engine", "cycles", "mean lat", "accepted", "wall", "speedup")
	for _, load := range []float64{0.02, 0.05, 0.15} {
		one, oneWall := run(load, 1)
		two, twoWall := run(load, 2)
		if one != two {
			log.Fatalf("shard counts diverged at load %v:\n1 shard:  %+v\n2 shards: %+v", load, one, two)
		}
		fmt.Printf("%-8.2f %-10s %10d %9.1f cy %12.4f %12s %9s\n",
			load, "1 shard", one.Cycles, one.Latency.MeanLatency, one.AcceptedLoad,
			oneWall.Round(time.Millisecond), "")
		fmt.Printf("%-8.2f %-10s %10d %9.1f cy %12.4f %12s %8.1fx\n",
			load, "2 shards", two.Cycles, two.Latency.MeanLatency, two.AcceptedLoad,
			twoWall.Round(time.Millisecond), float64(oneWall)/float64(twoWall))
	}
	fmt.Println()
	fmt.Println("Identical results (the example verifies every field). Two shards pay")
	fmt.Println("off only with a second idle core and enough in-flight work per window;")
	fmt.Println("at the lowest loads the barrier exchange can cost more than it saves.")
}
