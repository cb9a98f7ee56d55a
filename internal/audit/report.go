package audit

import (
	"sort"
)

// KStats summarizes the achieved anonymity-set sizes in the rolling
// window under one attacker class. Percentiles use the nearest-rank
// method over the window samples; Breaches is cumulative since the
// auditor was created (a breach must never age out of the report).
type KStats struct {
	Count    int   `json:"count"`
	Min      int   `json:"min"`
	P50      int   `json:"p50"`
	P95      int   `json:"p95"`
	Max      int   `json:"max"`
	Breaches int64 `json:"breachTotal"`
}

// Report is the rolling privacy report served at GET /v1/audit: the
// achieved-anonymity distribution under both attacker classes over the
// most recent window of audited events, plus cumulative audit counters.
type Report struct {
	// SampleRate is the request-path sampling rate in effect.
	SampleRate float64 `json:"sampleRate"`
	// WindowCap and WindowSamples size the rolling window.
	WindowCap     int `json:"windowCap"`
	WindowSamples int `json:"windowSamples"`
	// PolicyAudits / RequestAudits / Skipped count audit decisions since
	// the auditor was created.
	PolicyAudits  int64 `json:"policyAudits"`
	RequestAudits int64 `json:"requestAudits"`
	Skipped       int64 `json:"skipped"`
	// Aware / Unaware summarize achieved anonymity per attacker class.
	Aware   KStats `json:"policyAware"`
	Unaware KStats `json:"policyUnaware"`
	// AvgCloakArea is the mean utility measure over the window (m²).
	AvgCloakArea float64 `json:"avgCloakArea"`
	// Engines lists every engine observed since creation, sorted.
	Engines []string `json:"engines"`
	// LedgerRoots holds the latest sealed tamper-evident ledger
	// checkpoint: at most one entry, absent when the ledger is disabled or
	// nothing has sealed yet.
	LedgerRoots []LedgerRoot `json:"ledgerRoots,omitempty"`
}

// LedgerRoot is the latest sealed ledger checkpoint, enough to pin the
// chain head: fetch the full signed checkpoint and proofs from
// /v1/audit/root and /v1/audit/proof.
type LedgerRoot struct {
	BatchSeq  uint64 `json:"batchSeq"`
	Events    uint64 `json:"events"`
	ChainRoot string `json:"chainRoot"`
	SealedMs  int64  `json:"sealedMs"`
}

// push appends an entry to the rolling window. Callers must hold a.mu.
func (a *Auditor) push(e windowEntry) {
	if cap(a.ring) == 0 {
		return
	}
	if len(a.ring) < cap(a.ring) {
		a.ring = append(a.ring, e)
		return
	}
	a.ring[a.next] = e
	a.next = (a.next + 1) % len(a.ring)
	a.filled = true
}

// Report assembles the current rolling report.
func (a *Auditor) Report() Report {
	a.mu.Lock()
	entries := append([]windowEntry(nil), a.ring...)
	r := Report{
		SampleRate:    a.rate,
		WindowCap:     cap(a.ring),
		WindowSamples: len(entries),
		PolicyAudits:  a.policyAudits,
		RequestAudits: a.requestAudits,
		Skipped:       a.skipped.Load(),
		Engines:       make([]string, 0, len(a.engines)),
	}
	for e := range a.engines {
		r.Engines = append(r.Engines, e)
	}
	breachAware, breachUnaware := a.breachAware, a.breachUnaware
	a.mu.Unlock()
	sort.Strings(r.Engines)

	if l := a.led.Load(); l != nil {
		if cp, ok := l.Latest(); ok {
			r.LedgerRoots = []LedgerRoot{{
				BatchSeq:  cp.BatchSeq,
				Events:    cp.FirstSeq + uint64(cp.Count) - 1,
				ChainRoot: cp.ChainRoot,
				SealedMs:  cp.SealedMs,
			}}
		}
	}

	aware := make([]int, len(entries))
	unaware := make([]int, len(entries))
	var areaSum float64
	for i, e := range entries {
		aware[i] = e.aware
		unaware[i] = e.unaware
		areaSum += e.area
	}
	r.Aware = kStats(aware)
	r.Aware.Breaches = breachAware
	r.Unaware = kStats(unaware)
	r.Unaware.Breaches = breachUnaware
	if len(entries) > 0 {
		r.AvgCloakArea = areaSum / float64(len(entries))
	}
	return r
}

// kStats computes nearest-rank order statistics over ks.
func kStats(ks []int) KStats {
	if len(ks) == 0 {
		return KStats{}
	}
	sorted := append([]int(nil), ks...)
	sort.Ints(sorted)
	return KStats{
		Count: len(sorted),
		Min:   sorted[0],
		P50:   nearestRank(sorted, 0.50),
		P95:   nearestRank(sorted, 0.95),
		Max:   sorted[len(sorted)-1],
	}
}

// nearestRank returns the q-quantile of a sorted slice by nearest rank.
func nearestRank(sorted []int, q float64) int {
	i := int(float64(len(sorted))*q+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
