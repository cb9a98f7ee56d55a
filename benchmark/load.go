package main

import (
	"math"
	"sort"
	"time"
)

// opFunc performs operation i on connection c. It returns the instant
// the response had been read in full — taken before any checking, so
// the oracle's work is off the latency clock — and whether the
// operation succeeded and its answer was correct.
type opFunc func(c *conn, i int) (done time.Time, ok bool)

// phase is the bookkeeping of one load phase, as written to the result
// file. Every phase is a closed loop on one connection: the next
// operation is sent only after the previous one completed. A failed
// operation counts as sent and contributes no latency.
type phase struct {
	Name      string  `json:"name"`
	Seconds   float64 `json:"seconds"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`

	lat []float64 // milliseconds, successes only
}

// closedLoop keeps one operation in flight on the connection until the
// deadline, from this one goroutine, and lets the host-speed probe run
// between operations, while the server is idle.
func (r *run) closedLoop(name string, c *conn, dur time.Duration, op opFunc) phase {
	ph := phase{Name: name}
	start := time.Now()
	end := start.Add(dur)
	for i := 0; ; i++ {
		t0 := time.Now()
		if !t0.Before(end) {
			break
		}
		done, ok := op(c, i)
		ph.Sent++
		if ok {
			ph.Succeeded++
			ph.lat = append(ph.lat, float64(done.Sub(t0))/float64(time.Millisecond))
		}
		r.speed.tick()
	}
	ph.Seconds = time.Since(start).Seconds()
	ph.Failed = ph.Sent - ph.Succeeded
	return ph
}

// percentile is the nearest-rank p-th percentile; 0 for no samples.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercent is the highest percentile of {99, 95, 90, 75} that leaves
// at least ten of n samples beyond it; below forty samples only the
// median is supported.
func tailPercent(n int) float64 {
	for _, p := range []float64{99, 95, 90, 75} {
		if float64(n)*(100-p)/100 >= 10 {
			return p
		}
	}
	return 50
}
