// Package policyanon is a from-scratch Go implementation of
// "Policy-Aware Sender Anonymity in Location Based Services"
// (Deutsch, Hull, Vyas, Zhao — ICDE 2010).
//
// It provides sender k-anonymity for location-based-service requests that
// holds even against attackers who know the anonymization policy in use
// ("the design is not secret"), via the paper's polynomial-time optimal
// cloaking algorithm over quad-tree and binary semi-quadrant cloaks.
//
// The package is a facade over the implementation packages:
//
//   - the optimal policy-aware anonymizer (Anonymizer), with bulk
//     computation, policy extraction and incremental maintenance under
//     user movement;
//   - the prior-art k-inside baselines it is evaluated against (PUQ, PUB,
//     Casper, KSharing, circular cloaks);
//   - the attacker model (Audit, Candidates, IsKAnonymous) for both
//     policy-aware and policy-unaware attacker classes;
//   - parallel deployment over map jurisdictions (NewEngine, Partition);
//   - the privacy-conscious LBS pipeline (CSP, POIStore, POIProvider,
//     RecordingProvider) with cloaked nearest-neighbour evaluation and
//     the request cache;
//   - a synthetic Bay-Area workload generator (GenerateWorkload).
//
// Quick start:
//
//	db := policyanon.NewLocationDB()
//	db.Add("alice", policyanon.Pt(120, 450))
//	// ... add the rest of the snapshot ...
//	anon, err := policyanon.NewAnonymizer(db, policyanon.Square(0, 0, 1<<17),
//	    policyanon.Options{K: 50})
//	policy, err := anon.Policy()          // optimal policy-aware cloaking
//	cloak, err := policy.CloakOf("alice") // the region sent to the LBS
//
// See DESIGN.md for the paper-to-module map and EXPERIMENTS.md for the
// reproduced evaluation.
package policyanon

import (
	"context"
	"io"

	"policyanon/internal/attacker"
	"policyanon/internal/baseline"
	"policyanon/internal/checkpoint"
	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/history"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/obs"
	"policyanon/internal/parallel"
	"policyanon/internal/roadnet"
	"policyanon/internal/rolling"
	"policyanon/internal/sim"
	"policyanon/internal/tree"
	"policyanon/internal/verify"
	"policyanon/internal/workload"
)

// Geometry.
type (
	// Point is a map location in integer meters.
	Point = geo.Point
	// Rect is an axis-aligned rectangular region (half-open), the cloak
	// shape of the quad-tree and binary-tree policies.
	Rect = geo.Rect
	// Circle is a circular cloak (Theorem 1's cloak family).
	Circle = geo.Circle
)

// Location database.
type (
	// LocationDB is one snapshot of the schema D = {userid, locx, locy}.
	LocationDB = location.DB
	// Record is one row of the location database.
	Record = location.Record
)

// LBS model.
type (
	// ServiceRequest is the precise request the CSP assembles (Def. 1).
	ServiceRequest = lbs.ServiceRequest
	// AnonymizedRequest is the cloaked request sent to the LBS (Def. 2).
	AnonymizedRequest = lbs.AnonymizedRequest
	// Param is one name-value pair of a request's parameter vector.
	Param = lbs.Param
	// Assignment is a cloaking policy for one snapshot: user -> cloak.
	Assignment = lbs.Assignment
	// Group is one cloaking group of an Assignment.
	Group = lbs.Group
	// POI is a point of interest served by the LBS provider.
	POI = lbs.POI
	// POIStore is the provider's spatial index.
	POIStore = lbs.POIStore
	// POIProvider answers anonymized requests from a POIStore.
	POIProvider = lbs.POIProvider
	// RecordingProvider wraps a provider and logs every anonymized
	// request it is asked: the provider log the attacks replay.
	RecordingProvider = lbs.RecordingProvider
	// CSP is the trusted anonymizing front end with result cache.
	CSP = lbs.CSP
)

// Core algorithm.
type (
	// Anonymizer computes optimal policy-aware k-anonymous policies for
	// one snapshot and maintains them incrementally under movement.
	Anonymizer = core.Anonymizer
	// Options configures NewAnonymizer.
	Options = core.AnonymizerOptions
	// DPOptions exposes the ablation switches of the dynamic program.
	DPOptions = core.Options
	// TreeKind selects quad-tree or binary semi-quadrant cloaks.
	TreeKind = tree.Kind
)

// Attacker model.
type (
	// Awareness is the attacker class of Section III.
	Awareness = attacker.Awareness
	// Breach records a sender k-anonymity violation.
	Breach = attacker.Breach
	// FrequencyFinding is a Section VII counting-attack disclosure.
	FrequencyFinding = attacker.FrequencyFinding
	// TrajectoryObservation is one snapshot of a pinned request series
	// for the trajectory-aware attack (out of the paper's defence scope;
	// provided to demonstrate the limitation).
	TrajectoryObservation = attacker.TrajectoryObservation
)

// Parallel deployment.
type (
	// Engine runs per-jurisdiction anonymization servers.
	Engine = parallel.Engine
	// EngineOptions configures NewEngine.
	EngineOptions = parallel.Options
)

// Workload generation.
type (
	// WorkloadConfig parameterizes the synthetic Bay-Area generator.
	WorkloadConfig = workload.Config
	// Move is one user relocation between snapshots.
	Move = workload.Move
)

// Circular cloaks.
type (
	// CircleAssignment is a circular cloaking policy with centers from a
	// fixed set (Theorem 1's family).
	CircleAssignment = baseline.CircleAssignment
	// MBCAssignment is a free-center minimum-bounding-circle policy
	// (FindMBC [27]).
	MBCAssignment = baseline.MBCAssignment
)

// Attacker classes.
const (
	// PolicyUnaware attackers know only the cloak family (Prop. 2).
	PolicyUnaware = attacker.PolicyUnaware
	// PolicyAware attackers know the exact policy (the paper's threat).
	PolicyAware = attacker.PolicyAware
)

// Tree kinds.
const (
	// BinaryTree is the semi-quadrant tree of Section V (the default).
	BinaryTree = tree.Binary
	// QuadTree is the classical quad tree of [16].
	QuadTree = tree.Quad
)

// ErrInsufficientUsers is returned when a snapshot holds fewer than k
// users, in which case no policy can provide sender k-anonymity.
var ErrInsufficientUsers = core.ErrInsufficientUsers

// Pt builds a Point.
func Pt(x, y int32) Point { return Point{X: x, Y: y} }

// Square builds the square map region with the given origin and side.
func Square(x, y, side int32) Rect { return geo.NewRect(x, y, x+side, y+side) }

// NewLocationDB returns an empty location snapshot.
func NewLocationDB() *LocationDB { return location.New(0) }

// ReadLocationCSV parses a "userid,locx,locy" CSV snapshot.
func ReadLocationCSV(r io.Reader) (*LocationDB, error) { return location.ReadCSV(r) }

// NewAnonymizer builds the cloaking tree over the snapshot and runs the
// optimal policy-aware bulk anonymization (Theorem 2 / Algorithm 1 with
// the Section V optimizations).
func NewAnonymizer(db *LocationDB, bounds Rect, opt Options) (*Anonymizer, error) {
	return core.NewAnonymizer(db, bounds, opt)
}

// NewAnonymizerContext is NewAnonymizer with a context: when ctx carries a
// tracer (WithTracer), the build emits bulkdp.build, tree.build and
// bulkdp.combine spans, and later Policy/Update calls emit bulkdp.extract
// and bulkdp.update nested under the build. Without a tracer it behaves
// exactly like NewAnonymizer at zero overhead.
func NewAnonymizerContext(ctx context.Context, db *LocationDB, bounds Rect, opt Options) (*Anonymizer, error) {
	return core.NewAnonymizerContext(ctx, db, bounds, opt)
}

// PUQ computes the policy-unaware quad-tree baseline of [16].
func PUQ(db *LocationDB, bounds Rect, k int) (*Assignment, error) {
	return baseline.PUQ(db, bounds, k)
}

// PUB computes the policy-unaware binary-tree baseline.
func PUB(db *LocationDB, bounds Rect, k int) (*Assignment, error) {
	return baseline.PUB(db, bounds, k)
}

// Casper computes the basic Casper baseline of [23].
func Casper(db *LocationDB, bounds Rect, k int) (*Assignment, error) {
	return baseline.Casper(db, bounds, k)
}

// KSharing simulates a k-sharing anonymizer over a request sequence and
// returns one cloak per request; see the baseline package for the attack
// it admits.
func KSharing(db *LocationDB, k int, order []int) ([]Rect, error) {
	return baseline.KSharing(db, k, order)
}

// NearestCenterCircles computes the Fig. 6(b) circular policy: each user
// is cloaked by the minimal >= k-covering circle at her nearest center.
func NearestCenterCircles(db *LocationDB, centers []Point, k int) (*CircleAssignment, error) {
	return baseline.NearestCenterCircles(db, centers, k)
}

// OptimalCircular solves the NP-complete circular-cloak variant exactly
// (small instances only; Theorem 1).
func OptimalCircular(db *LocationDB, centers []Point, k int) (*CircleAssignment, error) {
	return baseline.OptimalCircular(db, centers, k)
}

// GreedyCircular is the polynomial circular-cloak heuristic.
func GreedyCircular(db *LocationDB, centers []Point, k int) (*CircleAssignment, error) {
	return baseline.GreedyCircular(db, centers, k)
}

// HilbertCloak computes the space-filling-curve bucketing of Kalnis et
// al. [17]: deterministic static groups of k..2k-1 users, policy-aware
// safe but not cost-optimal within any cloak family.
func HilbertCloak(db *LocationDB, bounds Rect, k int) (*Assignment, error) {
	return baseline.HilbertCloak(db, bounds, k)
}

// FindMBC computes the per-user minimum-bounding-circle cloaking of
// Xu–Cai [27]; k-inside but policy-aware breached (its cloaking groups
// are near-singletons).
func FindMBC(db *LocationDB, bounds Rect, k int) (*MBCAssignment, error) {
	return baseline.FindMBC(db, bounds, k)
}

// Audit checks sender k-anonymity of a policy against the given attacker
// class and returns all breaches with the minimum candidate-set size.
func Audit(a *Assignment, k int, aw Awareness) ([]Breach, int) {
	return attacker.Audit(a, k, aw)
}

// IsKAnonymous reports whether the policy provides sender k-anonymity on
// its snapshot against the given attacker class (Definition 6).
func IsKAnonymous(a *Assignment, k int, aw Awareness) bool {
	return attacker.IsKAnonymous(a, k, aw)
}

// Candidates returns the possible senders of a request with the given
// cloak, as computed by the attack function of Section III.
func Candidates(a *Assignment, cloak Rect, aw Awareness) []string {
	return attacker.Candidates(a, cloak, aw)
}

// VerifyReport is the outcome of the full defence-in-depth verification.
type VerifyReport = verify.Report

// Verify re-derives every promised property of a policy from first
// principles — masking and sender k-anonymity against both attacker
// classes. A passing report proves that the k PREs of Definition 6 exist;
// it does not list them. Operational surfaces should verify rather than
// trust.
func Verify(a *Assignment, k int) *VerifyReport { return verify.Policy(a, k) }

// FrequencyAttack replays the Section VII counting attack over a provider
// log; the CSP result cache is the defence.
func FrequencyAttack(a *Assignment, log []AnonymizedRequest) []FrequencyFinding {
	return attacker.FrequencyAttack(a, log)
}

// TrajectoryCandidates intersects per-snapshot candidate sets for a
// request series known to come from one user, demonstrating that
// per-snapshot k-anonymity does not compose over time (the future-work
// attacker of Section I).
func TrajectoryCandidates(series []TrajectoryObservation) []string {
	return attacker.TrajectoryCandidates(series)
}

// MultiKPolicy computes a policy-aware anonymous policy with per-user
// anonymity levels ks (a sound, conservative realization of the paper's
// user-specified-k future work; see internal/core for the construction).
func MultiKPolicy(db *LocationDB, bounds Rect, ks []int, opt Options) (*Assignment, error) {
	return core.MultiKPolicy(db, bounds, ks, opt)
}

// MultiKAudit returns the indices of users whose requested anonymity the
// assignment fails to deliver (empty means the guarantee holds).
func MultiKAudit(a *Assignment, ks []int) []int { return core.MultiKAudit(a, ks) }

// NewEngine partitions the map into jurisdictions and anonymizes them in
// parallel (Section V, "Parallel Anonymization").
func NewEngine(db *LocationDB, bounds Rect, opt EngineOptions) (*Engine, error) {
	return parallel.NewEngine(db, bounds, opt)
}

// NewEngineContext is NewEngine with a context: a ctx-carried tracer
// records parallel.build, parallel.partition and one parallel.worker lane
// per jurisdiction server.
func NewEngineContext(ctx context.Context, db *LocationDB, bounds Rect, opt EngineOptions) (*Engine, error) {
	return parallel.NewEngineContext(ctx, db, bounds, opt)
}

// Partition returns the greedy jurisdiction partition without running the
// anonymizers.
func Partition(db *LocationDB, bounds Rect, k, n int) ([]Rect, error) {
	return parallel.Partition(db, bounds, k, n)
}

// GenerateWorkload produces a deterministic synthetic Bay-Area snapshot.
func GenerateWorkload(cfg WorkloadConfig, seed int64) *LocationDB {
	return workload.Generate(cfg, seed)
}

// DefaultMapSide is the default square map side of the synthetic workload
// (2^17 m, about the extent of the San Francisco Bay Area).
const DefaultMapSide = workload.DefaultMapSide

// NewPOIStore indexes points of interest for the LBS provider.
func NewPOIStore(pois []POI, bounds Rect, cellSide int32) (*POIStore, error) {
	return lbs.NewPOIStore(pois, bounds, cellSide)
}

// NewPOIProvider wraps a store as an answering, billing LBS provider.
func NewPOIProvider(store *POIStore) *POIProvider { return lbs.NewPOIProvider(store) }

// NewRecordingProvider wraps a provider so that every anonymized request
// it sees is kept for RecordingProvider.Log.
func NewRecordingProvider(next lbs.Provider) *RecordingProvider {
	return lbs.NewRecordingProvider(next)
}

// NewCSP wires a policy to a provider with the Section VII result cache.
func NewCSP(policy *Assignment, provider lbs.Provider) *CSP {
	return lbs.NewCSP(policy, provider)
}

// FilterNearest is the client-side refinement of a candidate answer set.
func FilterNearest(cands []POI, loc Point) (POI, bool) { return lbs.FilterNearest(cands, loc) }

// NewAssignment wraps explicit per-record cloaks as a policy, verifying
// the masking property (Definition 4). Most callers should use
// Anonymizer.Policy instead.
func NewAssignment(db *LocationDB, cloaks []Rect) (*Assignment, error) {
	return lbs.NewAssignment(db, cloaks)
}

// Serving-path and operations layer.
type (
	// RollingAnonymizer serves lock-free cloak lookups while the next
	// snapshot's policy is maintained and swapped atomically.
	RollingAnonymizer = rolling.Anonymizer
	// RollingStats reports a rolling commit.
	RollingStats = rolling.Stats
	// SimConfig parameterizes the end-to-end LBS ecosystem simulation.
	SimConfig = sim.Config
	// SimReport is a simulation outcome.
	SimReport = sim.Report
	// CheckpointState is a restored (snapshot, policy) pair.
	CheckpointState = checkpoint.State
	// RoadNetwork is a Brinkhoff-style road graph for network movement.
	RoadNetwork = roadnet.Network
	// RoadAgents is a population moving on a road network.
	RoadAgents = roadnet.Agents
)

// NewRollingAnonymizer computes and publishes the initial policy and
// takes ownership of db.
func NewRollingAnonymizer(db *LocationDB, bounds Rect, k int) (*RollingAnonymizer, error) {
	return rolling.New(db, bounds, k)
}

// RunSimulation executes the discrete-event LBS ecosystem simulation.
func RunSimulation(cfg SimConfig) (*SimReport, error) { return sim.Run(cfg) }

// SaveCheckpoint serializes a (k, bounds, policy) state with integrity
// protection; it refuses a policy that is not policy-aware k-anonymous.
func SaveCheckpoint(w io.Writer, k int, bounds Rect, policy *Assignment) error {
	return checkpoint.Save(w, &checkpoint.State{K: k, Bounds: bounds, Policy: policy})
}

// LoadCheckpoint restores and safety-revalidates a checkpoint.
func LoadCheckpoint(r io.Reader) (*CheckpointState, error) { return checkpoint.Load(r) }

// BuildRoadNetwork connects intersections into a road graph for the
// network-based moving-objects model (the paper's dataset source [8]).
func BuildRoadNetwork(intersections []Point, bounds Rect, degree int) (*RoadNetwork, error) {
	return roadnet.BuildNetwork(intersections, bounds, degree)
}

// NewRoadAgents places n agents on the network, deterministically from
// the seed.
func NewRoadAgents(net *RoadNetwork, n int, seed int64) (*RoadAgents, error) {
	return roadnet.NewAgents(net, n, seed)
}

// AdaptivePolicy computes the optimal policy over the adaptive-orientation
// cloak family the paper sketches in Section V (each square chooses
// vertical or horizontal semi-quadrants at run time); its cost is never
// worse than the static binary tree's optimum.
func AdaptivePolicy(db *LocationDB, bounds Rect, k int) (*Assignment, error) {
	return core.AdaptivePolicy(db, bounds, k, core.Options{})
}

// History of (snapshot, policy) epochs — the attacker's "sequence of
// location databases" made concrete.
type (
	// HistoryWriter appends checkpoint-encoded epochs to a stream.
	HistoryWriter = history.Writer
	// HistoryReader iterates stored epochs.
	HistoryReader = history.Reader
)

// NewHistoryWriter wraps a destination stream for epoch recording.
func NewHistoryWriter(w io.Writer) *HistoryWriter { return history.NewWriter(w) }

// ReadHistory loads every stored epoch.
func ReadHistory(r io.Reader) ([]*CheckpointState, error) { return history.ReadAll(r) }

// ReplayTrajectory runs the trajectory-aware attack over stored epochs for
// a pinned user and returns the intersected candidate set.
func ReplayTrajectory(states []*CheckpointState, userID string) ([]string, error) {
	return history.ReplayTrajectory(states, userID)
}

// Observability layer: hierarchical phase tracing and metrics. A Tracer
// rides in a context (WithTracer) and every traced operation — bulk
// anonymization, incremental maintenance, parallel workers, the CSP
// serve path — records spans into it; export them as a Chrome
// trace_event file (Tracer.WriteChromeTrace), an aggregated phase
// table (Tracer.WritePhaseTable), or Prometheus text exposition via a
// MetricsRegistry (Tracer.SetRegistry + Registry.WritePrometheus). A
// context without a tracer costs nothing. See docs/OBSERVABILITY.md.
type (
	// Tracer collects hierarchical timing spans from traced operations.
	Tracer = obs.Tracer
	// Span is one timed phase; it is nil-safe, so untraced paths pay
	// nothing.
	Span = obs.Span
	// PhaseStat is one row of the aggregated per-phase timing summary.
	PhaseStat = obs.PhaseStat
	// MetricsRegistry holds named counters and latency histograms and
	// serves them as JSON or Prometheus text exposition.
	MetricsRegistry = metrics.Registry
)

// NewTracer returns an empty tracer ready to attach with WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// WithTracer returns a context whose traced operations record spans into
// tr. Library calls that take a context (NewAnonymizerContext,
// NewEngineContext and the CSP path) pick it up automatically.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return obs.WithTracer(ctx, tr)
}

// StartSpan opens an application-level span under the context's current
// span, for bracketing caller code in the same trace; it returns the
// unmodified context and a nil span when the context carries no tracer.
// End the span with Span.End.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.Start(ctx, name)
}

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// Unified engine layer: every anonymization algorithm in the module — the
// optimal policy-aware anonymizer, its ablations and extensions, the
// k-inside baselines, and the parallel deployment — is registered behind
// one name-keyed interface. Consumers select algorithms by name
// (GetEngine, EngineNames) instead of linking concrete constructors; the
// middleware in internal/engine adds tracing, metrics, post-hoc
// verification and per-snapshot caching uniformly. See docs/ENGINES.md.
//
// Note: Engine (above) remains the Section V parallel deployment for
// compatibility; the algorithm interface is PolicyEngine.
type (
	// PolicyEngine is the uniform anonymization-algorithm interface.
	PolicyEngine = engine.Engine
	// EngineParams carries per-call parameters (k, per-user ks, options).
	EngineParams = engine.Params
	// EngineInfo describes a registered engine's capabilities.
	EngineInfo = engine.Info
	// EngineRegistry is a name-keyed engine collection; most callers use
	// the package-level default registry via GetEngine / RegisterEngine.
	EngineRegistry = engine.Registry
	// EngineMiddleware decorates a PolicyEngine (tracing, metrics,
	// verification, caching).
	EngineMiddleware = engine.Middleware
)

// DefaultEngineName names the engine used when no selection is made: the
// paper's optimal policy-aware anonymizer over binary semi-quadrant
// cloaks.
const DefaultEngineName = engine.DefaultName

// ErrUnknownEngine is wrapped by GetEngine for unregistered names.
var ErrUnknownEngine = engine.ErrUnknownEngine

// GetEngine resolves a registered engine by name ("bulkdp-binary",
// "casper", "hilbert", ...; see EngineNames).
func GetEngine(name string) (PolicyEngine, error) { return engine.Get(name) }

// EngineNames lists the registered engine names, sorted.
func EngineNames() []string { return engine.Names() }

// EngineInfos lists the registered engines with capability flags, sorted
// by name.
func EngineInfos() []EngineInfo { return engine.Infos() }

// RegisterEngine adds an engine to the default registry, e.g. a caller's
// own algorithm so that benches and servers can sweep it by name.
func RegisterEngine(info EngineInfo, e PolicyEngine) error {
	return engine.Register(info, e)
}

// NewEngineFunc wraps a plain function as a named PolicyEngine.
func NewEngineFunc(name string, fn func(ctx context.Context, db *LocationDB, bounds Rect, p EngineParams) (*Assignment, error)) PolicyEngine {
	return engine.New(name, fn)
}

// AnonymizeWith resolves name in the default registry and runs it with
// tracing enabled (spans appear when ctx carries a Tracer). It is the
// one-call path for engine-agnostic callers:
//
//	policy, err := policyanon.AnonymizeWith(ctx, "casper", db, bounds, 50)
func AnonymizeWith(ctx context.Context, name string, db *LocationDB, bounds Rect, k int) (*Assignment, error) {
	e, err := engine.Get(name)
	if err != nil {
		return nil, err
	}
	return engine.Wrap(e, engine.WithTracing()).Anonymize(ctx, db, bounds, EngineParams{K: k})
}
