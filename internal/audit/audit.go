// Package audit is the privacy observatory of the serving stack: it
// watches live anonymization traffic and continuously measures the
// guarantee the paper is actually about — the achieved anonymity-set size
// under both attacker classes of Section III (policy-aware and
// policy-unaware, Definitions 5–6) — together with the utility price paid
// for it (cloak area, the Section IV cost function).
//
// The pipeline already *verifies* policies before trusting them
// (internal/verify); this package instead *observes* them in production,
// cheaply and continuously:
//
//   - An Auditor samples served requests at a configurable rate and, per
//     sampled request, computes the candidate-sender set of the observed
//     cloak under both attacker.Awareness modes plus its utility measures.
//   - Policy-change events (snapshot installs, movement recomputes) are
//     audited in full. Both read the assignment's attacker.Survey, so a
//     version the publish gate already verified is audited in O(groups)
//     and a sampled request in O(1).
//   - Results feed three sinks at once: Prometheus metric families in a
//     metrics.Registry (anon_achieved_k, anon_breach_total,
//     anon_cloak_area, audit_sampled_total), a rolling window that
//     GET /v1/audit reports as min/p50/p95 achieved-k, and — on breach —
//     a structured log/slog line plus attributes on the enclosing obs
//     span, all carrying the request ID minted by the HTTP layer so one
//     breach correlates across log, trace, and metric.
//
// Everything is safe for concurrent use; a Survey only reads its
// assignment, so samplers may run on request goroutines without
// coordination beyond the Auditor's own state.
package audit

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/ledger"
	"policyanon/internal/metrics"
	"policyanon/internal/obs"
	"policyanon/internal/obs/flight"
)

// DefaultRate is the default request-path sampling rate: one audited
// request per 64 served, which keeps the three sinks' bookkeeping well
// under the <5% overhead budget the benchmark gate enforces.
const DefaultRate = 1.0 / 64

// DefaultWindow is the default rolling-window capacity (samples retained
// for the percentile report).
const DefaultWindow = 1024

// AchievedKBounds are the ValueHistogram bucket bounds used for the
// anon_achieved_k families: finer than the decade defaults, because the
// interesting distinctions (k=2 vs k=10 vs k=50) all live below 100.
var AchievedKBounds = []int64{1, 2, 3, 5, 8, 12, 20, 32, 50, 80, 128, 256, 512, 1024, 4096}

// Sampler makes deterministic 1-in-N sampling decisions. The first call
// is always sampled (so a fresh server's first policy or request is
// observed immediately and /v1/audit is never empty after traffic), then
// every N-th thereafter. The zero value never samples.
type Sampler struct {
	every uint64
	n     atomic.Uint64
}

// NewSampler returns a sampler firing on ~rate of calls. rate <= 0 never
// samples; rate >= 1 samples every call.
func NewSampler(rate float64) *Sampler {
	if rate <= 0 || math.IsNaN(rate) {
		return &Sampler{}
	}
	if rate >= 1 {
		return &Sampler{every: 1}
	}
	every := uint64(math.Round(1 / rate))
	if every < 1 {
		every = 1
	}
	return &Sampler{every: every}
}

// Sample reports whether this call is selected.
func (s *Sampler) Sample() bool {
	switch s.every {
	case 0:
		return false
	case 1:
		return true
	default:
		return s.n.Add(1)%s.every == 1
	}
}

// Options configures an Auditor.
type Options struct {
	// Rate is the request-path sampling rate in [0,1]; 0 disables
	// request sampling (policy audits are always caller-triggered).
	// Negative or NaN values are treated as 0.
	Rate float64
	// Window is the rolling-window capacity (DefaultWindow when <= 0).
	Window int
	// Logger, when non-nil, receives structured breach (Warn) and audit
	// (Debug) records. Records carry the request ID from the context.
	Logger *slog.Logger
	// ExpectPolicyAware reports whether the named engine claims sender
	// k-anonymity against policy-aware attackers. Breaches of engines
	// that do NOT claim it (the k-inside family, Proposition 2) are
	// logged as expected=true: the observatory reports ground truth
	// either way, but operators can filter the known-by-construction
	// breaches out. nil holds every engine to the policy-aware standard.
	ExpectPolicyAware func(engine string) bool
}

// windowEntry is one rolling-window sample: achieved anonymity under both
// attacker classes plus the utility measure (area in m²).
type windowEntry struct {
	aware   int
	unaware int
	area    float64
}

// Auditor samples anonymization traffic into a metrics registry, a
// rolling window, and a structured log. Create with New; all methods are
// safe for concurrent use.
type Auditor struct {
	reg    *metrics.Registry
	expect func(string) bool

	skipped atomic.Int64

	// led, when set, receives every audit outcome as a tamper-evident
	// ledger event (see SetLedger). Atomic so the serving path never takes
	// a.mu just to discover the ledger is disabled.
	led atomic.Pointer[ledger.Ledger]

	// rec, when set, receives every breach as a flight-recorder event,
	// pinning the incident to its retained trace (see SetFlight).
	rec atomic.Pointer[flight.Recorder]

	mu            sync.Mutex
	rate          float64
	sampler       *Sampler
	logger        *slog.Logger
	ring          []windowEntry
	next          int
	filled        bool
	engines       map[string]bool
	policyAudits  int64
	requestAudits int64
	breachAware   int64
	breachUnaware int64
}

// New returns an Auditor recording into reg.
func New(reg *metrics.Registry, opts Options) *Auditor {
	if opts.Window <= 0 {
		opts.Window = DefaultWindow
	}
	rate := opts.Rate
	if rate <= 0 || math.IsNaN(rate) {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	return &Auditor{
		reg:     reg,
		expect:  opts.ExpectPolicyAware,
		rate:    rate,
		sampler: NewSampler(rate),
		logger:  opts.Logger,
		ring:    make([]windowEntry, 0, opts.Window),
		engines: make(map[string]bool),
	}
}

// Rate returns the current request-path sampling rate.
func (a *Auditor) Rate() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rate
}

// SetRate replaces the request-path sampling rate (0 disables sampling).
// The sampling counter restarts, so the next request after enabling is
// sampled immediately.
func (a *Auditor) SetRate(rate float64) {
	if rate <= 0 || math.IsNaN(rate) {
		rate = 0
	} else if rate > 1 {
		rate = 1
	}
	a.mu.Lock()
	a.rate = rate
	a.sampler = NewSampler(rate)
	a.mu.Unlock()
}

// SetLogger replaces the structured-log sink (nil disables logging).
func (a *Auditor) SetLogger(l *slog.Logger) {
	a.mu.Lock()
	a.logger = l
	a.mu.Unlock()
}

// SetLedger attaches a tamper-evident ledger: from then on every policy
// audit, sampled request verdict, and breach is appended as a ledger
// event (kinds policy_audit / request_verdict / breach) whose detail is
// the sample's JSON. nil detaches. Append is a single hash + slice
// append; sealing happens on the ledger's own goroutine, so the serving
// path stays within the audit overhead budget.
func (a *Auditor) SetLedger(l *ledger.Ledger) {
	a.led.Store(l)
}

// SetFlight attaches a flight recorder: every breach is emitted as a
// notable event carrying the request and trace IDs, and the enclosing
// capture (if a traced request is in flight) is marked "breach" so the
// tail sampler retains its span tree. nil detaches.
func (a *Auditor) SetFlight(rec *flight.Recorder) {
	a.rec.Store(rec)
}

// record appends an audit outcome to the attached ledger, if any. Ledger
// failures must never fail the audit itself — the event is dropped and
// the ledger's own metrics/log carry the error.
func (a *Auditor) record(ctx context.Context, kind ledger.Kind, engineName string, detail any) {
	l := a.led.Load()
	if l == nil {
		return
	}
	payload, err := json.Marshal(detail)
	if err != nil {
		return
	}
	l.Append(ctx, kind, engineName, RequestID(ctx), string(payload))
}

// PolicySample is the outcome of one full-policy audit: the achieved
// anonymity floor of the whole assignment under each attacker class, the
// breached-group counts, and the policy's utility measures.
type PolicySample struct {
	Engine          string  `json:"engine"`
	K               int     `json:"k"`
	Users           int     `json:"users"`
	MinKAware       int     `json:"minKAware"`
	MinKUnaware     int     `json:"minKUnaware"`
	BreachesAware   int     `json:"breachesAware"`
	BreachesUnaware int     `json:"breachesUnaware"`
	Cost            int64   `json:"cost"`
	AvgCloakArea    float64 `json:"avgCloakArea"`
	Groups          int     `json:"groups"`
}

// ObservePolicy audits a whole assignment (a policy-change event: a
// snapshot install or a movement recompute) under both attacker classes
// and records the outcome. It is the caller's job to decide how often to
// call it — engine.WithAudit samples, serving surfaces audit every
// install because policies change far less often than requests arrive.
func (a *Auditor) ObservePolicy(ctx context.Context, engineName string, pol *lbs.Assignment, k int) PolicySample {
	s := PolicySample{Engine: engineName, K: k, Users: pol.Len()}
	if pol.Len() == 0 {
		return s
	}
	survey := attacker.SurveyOf(pol)
	awBreaches, minAware := survey.Audit(k, attacker.PolicyAware)
	unBreaches, minUnaware := survey.Audit(k, attacker.PolicyUnaware)
	s.MinKAware = minAware
	s.MinKUnaware = minUnaware
	s.BreachesAware = len(awBreaches)
	s.BreachesUnaware = len(unBreaches)
	s.Cost = pol.Cost()
	s.AvgCloakArea = float64(s.Cost) / float64(s.Users)
	s.Groups = len(survey.Groups())
	a.countIndexFallback(survey)

	a.reg.Counter("audit_sampled:" + engineName + "/policy").Inc()
	a.observeK(engineName, minAware, minUnaware)
	a.reg.ValueHistogram("anon_cloak_area:" + engineName).Observe(int64(s.AvgCloakArea))

	a.mu.Lock()
	a.policyAudits++
	a.engines[engineName] = true
	a.push(windowEntry{aware: minAware, unaware: minUnaware, area: s.AvgCloakArea})
	logger := a.logger
	a.mu.Unlock()

	a.record(ctx, ledger.KindPolicyAudit, engineName, s)

	if len(awBreaches) > 0 {
		a.breach(ctx, logger, engineName, attacker.PolicyAware, minAware, k,
			len(awBreaches), awBreaches[0].Cloak)
	}
	if len(unBreaches) > 0 {
		a.breach(ctx, logger, engineName, attacker.PolicyUnaware, minUnaware, k,
			len(unBreaches), unBreaches[0].Cloak)
	}
	return s
}

// RequestSample is the outcome of auditing one served request: the
// candidate-sender set sizes of the observed cloak under each attacker
// class, and the cloak's area.
type RequestSample struct {
	Engine    string `json:"engine"`
	K         int    `json:"k"`
	KAware    int    `json:"kAware"`
	KUnaware  int    `json:"kUnaware"`
	CloakArea int64  `json:"cloakArea"`
}

// candidateSizes returns the candidate-set sizes of cloak under both
// attacker classes from the assignment's survey: two O(1) lookups for a
// cloak the policy issues. The first sample of a never-surveyed
// assignment builds the survey (O(|D|)); serving surfaces audit every
// policy before they serve from it, so requests find it built.
func (a *Auditor) candidateSizes(pol *lbs.Assignment, cloak geo.Rect) (aware, unaware int) {
	survey := attacker.SurveyOf(pol)
	a.countIndexFallback(survey)
	return survey.Count(cloak, attacker.PolicyAware), survey.Count(cloak, attacker.PolicyUnaware)
}

// countIndexFallback makes a survey without a grid visible: its
// policy-unaware counts were full scans of D, one per cloak.
func (a *Auditor) countIndexFallback(survey *attacker.Survey) {
	if survey.IndexErr() != nil {
		a.reg.Counter("audit_index_fallback").Inc()
	}
}

// ObserveRequest audits one served anonymized request unconditionally:
// the candidate-set sizes of its cloak under both attacker classes, read
// from the assignment's survey, go to all three sinks (the serving path
// samples through MaybeObserveRequest instead).
func (a *Auditor) ObserveRequest(ctx context.Context, engineName string, pol *lbs.Assignment, cloak geo.Rect, k int) RequestSample {
	nAware, nUnaware := a.candidateSizes(pol, cloak)
	s := RequestSample{
		Engine: engineName, K: k,
		KAware: nAware, KUnaware: nUnaware,
		CloakArea: cloak.Area(),
	}

	a.reg.Counter("audit_sampled:" + engineName + "/request").Inc()
	a.observeK(engineName, nAware, nUnaware)
	a.reg.ValueHistogram("anon_cloak_area:" + engineName).Observe(s.CloakArea)

	a.mu.Lock()
	a.requestAudits++
	a.engines[engineName] = true
	a.push(windowEntry{aware: nAware, unaware: nUnaware, area: float64(s.CloakArea)})
	logger := a.logger
	a.mu.Unlock()

	a.record(ctx, ledger.KindRequestVerdict, engineName, s)

	if nAware < k {
		a.breach(ctx, logger, engineName, attacker.PolicyAware, nAware, k, 1, cloak)
	}
	if nUnaware < k {
		a.breach(ctx, logger, engineName, attacker.PolicyUnaware, nUnaware, k, 1, cloak)
	}
	return s
}

// SampleRequest reports whether the sampler selects the next served
// request for an audit, counting the ones it skips. A caller that must
// prepare something for ObserveRequest only when the request is audited
// (the batch handler builds the item's context then) asks first;
// everyone else calls MaybeObserveRequest.
func (a *Auditor) SampleRequest() bool {
	a.mu.Lock()
	sampler := a.sampler
	a.mu.Unlock()
	if !sampler.Sample() {
		a.skipped.Add(1)
		return false
	}
	return true
}

// MaybeObserveRequest is the serving-path entry point: it audits the
// request only when the sampler selects it, and reports whether it did.
func (a *Auditor) MaybeObserveRequest(ctx context.Context, engineName string, pol *lbs.Assignment, cloak geo.Rect, k int) (RequestSample, bool) {
	if !a.SampleRequest() {
		return RequestSample{}, false
	}
	return a.ObserveRequest(ctx, engineName, pol, cloak, k), true
}

// observeK feeds the achieved-k value histograms, one per awareness mode.
func (a *Auditor) observeK(engineName string, aware, unaware int) {
	a.reg.ValueHistogramBounds("anon_achieved_k:"+engineName+"/"+attacker.PolicyAware.String(),
		AchievedKBounds).Observe(int64(aware))
	a.reg.ValueHistogramBounds("anon_achieved_k:"+engineName+"/"+attacker.PolicyUnaware.String(),
		AchievedKBounds).Observe(int64(unaware))
}

// breachEvent is the JSON detail payload of a KindBreach ledger event.
type breachEvent struct {
	Engine         string `json:"engine"`
	Awareness      string `json:"awareness"`
	AchievedK      int    `json:"achievedK"`
	WantK          int    `json:"wantK"`
	BreachedGroups int    `json:"breachedGroups"`
	Expected       bool   `json:"expected"`
	Cloak          string `json:"cloak"`
}

// breach records one breach event into every sink: the anon_breach
// counter, the cumulative totals, the enclosing obs span, the ledger,
// and the structured log (correlated by the context's request ID).
func (a *Auditor) breach(ctx context.Context, logger *slog.Logger, engineName string,
	aw attacker.Awareness, achieved, want, groups int, cloak geo.Rect) {
	a.reg.Counter("anon_breach:" + engineName + "/" + aw.String()).Add(int64(groups))
	a.mu.Lock()
	if aw == attacker.PolicyAware {
		a.breachAware += int64(groups)
	} else {
		a.breachUnaware += int64(groups)
	}
	a.mu.Unlock()

	expected := false
	if aw == attacker.PolicyAware && a.expect != nil && !a.expect(engineName) {
		// A k-inside engine breaching against a policy-aware attacker is
		// Proposition 3 doing what it says, not an incident.
		expected = true
	}
	if sp := obs.Current(ctx); sp != nil {
		sp.SetAttr("audit.breach", aw.String())
		sp.SetInt("audit.achievedK", int64(achieved))
	}
	// Vote the enclosing traced request interesting and pin the incident
	// to its trace in the flight recorder's event ring.
	obs.MarkCapture(ctx, flight.ReasonBreach)
	if rec := a.rec.Load(); rec != nil {
		rec.Emit(&flight.Event{
			Time: time.Now(), Kind: "breach",
			RID: RequestID(ctx), TraceID: obs.CaptureFrom(ctx).TraceID(),
			Detail: fmt.Sprintf("%s/%s achievedK=%d wantK=%d groups=%d expected=%v",
				engineName, aw, achieved, want, groups, expected),
		})
	}
	a.record(ctx, ledger.KindBreach, engineName, breachEvent{
		Engine: engineName, Awareness: aw.String(),
		AchievedK: achieved, WantK: want,
		BreachedGroups: groups, Expected: expected,
		Cloak: cloak.String(),
	})
	if logger != nil {
		logger.LogAttrs(ctx, slog.LevelWarn, "anonymity breach",
			slog.String("rid", RequestID(ctx)),
			slog.String("engine", engineName),
			slog.String("awareness", aw.String()),
			slog.Int("achievedK", achieved),
			slog.Int("wantK", want),
			slog.Int("breachedGroups", groups),
			slog.Bool("expected", expected),
			slog.String("cloak", cloak.String()),
		)
	}
}
