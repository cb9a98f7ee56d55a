//go:build !race

package server

// raceEnabled reports whether the race detector is instrumenting this
// build. Allocation-count assertions are skipped under -race: the
// detector's shadow-state bookkeeping allocates on its own.
const raceEnabled = false
