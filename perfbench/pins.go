package main

// Pinned outputs at each workload's default seed. A performance-only
// change leaves every one of them identical. When a pin fails, the
// run's PROBLEM lines print the current values.

// fig13Pin is one Figure 13 curve's saturation load and zero-load
// latency, and how the figure shows them.
type fig13Pin struct {
	sat, zero float64
	shown     string
}

var fig13Pins = []fig13Pin{
	{0.45, 29.841333333333335, "45%/29.84"}, // WH (8 bufs)
	{0.5, 38.645666666666664, "50%/38.65"},  // VC (2vcsX4bufs)
	{0.6, 31.567666666666668, "60%/31.57"},  // specVC (2vcsX4bufs)
}

// sweepPin is the digest of the sweep's JSON payload.
const sweepPin = "33f2b8bf52ce6b941a01745c4a7af2432b492c1648d6f717ae1800f7eee5077d"
