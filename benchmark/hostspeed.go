package main

import "time"

// hostSpeed is the benchmark's control variate. The sandbox is a few
// cores of a shared host whose memory system runs a fifth to a third
// slower for minutes at a time, whatever the guest does, and everything
// the server does is memory-bound: between identical runs an install
// took 170 or 213 ms, and the middle half of ten runs spread by a fifth
// of their median. A fixed kernel of the generator's own — one streaming
// pass over 32 MB, then 15,000 dependent loads scattered over 64 MB —
// slows with the server (correlation 0.9 and above between a run's median
// install or publish and its median kernel time), so a run times the
// kernel between operations and reports every time-based end-to-end
// metric as it would read on a host where the kernel takes speedRefMs:
// times are divided by median(kernel)/speedRefMs, rates multiplied. The
// kernel is code of the benchmark, not of the server, so no change to
// the server moves it; the raw values and the factor are in the result's
// detail section. README, "Host speed", has the measurements.
type hostSpeed struct {
	stream []uint64
	chain  []uint32 // one cycle through all entries, pseudo-randomly ordered
	pos    uint32
	sink   uint64
	last   time.Time
	ms     []float64
}

const (
	// speedRefMs is the kernel's time on this class of machine (2.1 GHz
	// Xeon under Firecracker) in its quiet hours. Only a scale: it fixes
	// what "a millisecond" of a reported metric means.
	speedRefMs = 9.0
	// speedEvery is how often the kernel runs: about 2 % of a window.
	speedEvery = 400 * time.Millisecond

	chainEntries = 1 << 24
	chainSteps   = 15000
)

func newHostSpeed() *hostSpeed {
	h := &hostSpeed{stream: make([]uint64, 4<<20), chain: make([]uint32, chainEntries)}
	for i := range h.stream {
		h.stream[i] = uint64(i)
	}
	// A full-period linear congruential step (multiplier 1 mod 4, odd
	// increment): following it visits every entry once, in an order the
	// prefetcher cannot follow.
	for i := range h.chain {
		h.chain[i] = (uint32(i)*1664525 + 1013904223) & (chainEntries - 1)
	}
	return h
}

// sample times the kernel once.
func (h *hostSpeed) sample() {
	t0 := time.Now()
	var sum uint64
	for _, v := range h.stream {
		sum += v
	}
	p := h.pos
	for i := 0; i < chainSteps; i++ {
		p = h.chain[p]
	}
	h.pos, h.sink = p, h.sink+sum
	h.last = time.Now()
	h.ms = append(h.ms, float64(h.last.Sub(t0))/float64(time.Millisecond))
}

// tick runs the kernel if it is due. Callers tick between operations,
// when the server is idle.
func (h *hostSpeed) tick() {
	if time.Since(h.last) >= speedEvery {
		h.sample()
	}
}

// factor is how much slower than the reference the host ran: the median
// kernel time over the run, as a share of speedRefMs.
func (h *hostSpeed) factor() float64 {
	return percentile(h.ms, 50) / speedRefMs
}
