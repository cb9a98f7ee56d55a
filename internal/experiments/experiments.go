// Package experiments contains one harness function per table and figure
// of the paper's evaluation (Section VI), shared by cmd/lbsbench and the
// repository's benchmark suite. Each function returns structured rows so
// that callers can assert on or benchmark them; the *Table converters in
// table.go turn rows into the one Table every output format is written
// from.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/baseline"
	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/parallel"
	"policyanon/internal/tree"
	"policyanon/internal/verify"
	"policyanon/internal/workload"
)

// Dataset bundles the Master snapshot with its map bounds.
type Dataset struct {
	Master *location.DB
	Bounds geo.Rect
	Seed   int64
	// Ctx, when set, carries an obs.Tracer through every experiment so
	// lbsbench runs emit per-phase traces (nil = tracing disabled).
	Ctx context.Context
}

// ctx returns the observability context for experiment runs.
func (d Dataset) ctx() context.Context {
	if d.Ctx != nil {
		return d.Ctx
	}
	return context.Background()
}

// NewDataset generates the synthetic Bay-Area Master set (Section VI
// "Location Data"; our substitution is documented in DESIGN.md §2).
func NewDataset(cfg workload.Config, seed int64) Dataset {
	side := cfg.MapSide
	if side == 0 {
		side = workload.DefaultMapSide
	}
	return Dataset{Master: workload.Generate(cfg, seed), Bounds: workload.MapBounds(side), Seed: seed}
}

// SampleSizes returns samples of the master set at the requested sizes,
// mirroring the paper's 100k/200k/... sampling. Sizes above the master
// size reuse the full master set.
func (d Dataset) Sample(n int) (*location.DB, error) {
	if n >= d.Master.Len() {
		return d.Master, nil
	}
	return d.Master.Sample(rand.New(rand.NewSource(d.Seed+int64(n))), n)
}

// Fig2Row summarizes the synthetic population density (the stand-in for
// the paper's Figure 2 density maps).
type Fig2Row struct {
	Cells     int
	MaxUsers  int
	MeanUsers float64
	SkewRatio float64
}

// Fig2 bins the master set into occupancy grids of increasing resolution.
func Fig2(d Dataset, resolutions []int) []Fig2Row {
	var rows []Fig2Row
	for _, cells := range resolutions {
		grid := workload.DensityGrid(d.Master, d.Bounds.MaxX, cells)
		maxV, total := 0, 0
		for _, r := range grid {
			for _, v := range r {
				total += v
				if v > maxV {
					maxV = v
				}
			}
		}
		mean := float64(total) / float64(cells*cells)
		rows = append(rows, Fig2Row{
			Cells: cells, MaxUsers: maxV, MeanUsers: mean,
			SkewRatio: workload.SkewRatio(grid),
		})
	}
	return rows
}

// Fig3Row reports binary-tree shape for one location-database size
// (Figure 3: "Tree structure built on 1M data").
type Fig3Row struct {
	N            int
	Nodes        int
	Leaves       int
	MaxHeight    int
	MaxLeafCount int
	BuildTime    time.Duration
}

// Fig3 builds the lazy binary tree at each size and reports its shape.
func Fig3(d Dataset, sizes []int, k int) ([]Fig3Row, error) {
	var rows []Fig3Row
	for _, n := range sizes {
		db, err := d.Sample(n)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		t, err := tree.BuildContext(d.ctx(), db.Points(), d.Bounds, tree.Options{Kind: tree.Binary, MinCountToSplit: k})
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		s := t.Stats()
		rows = append(rows, Fig3Row{
			N: db.Len(), Nodes: s.Nodes, Leaves: s.Leaves,
			MaxHeight: s.MaxHeight, MaxLeafCount: s.MaxLeafCount, BuildTime: el,
		})
	}
	return rows, nil
}

// Fig4aRow reports bulk anonymization wall time for one (|D|, servers)
// point of Figure 4(a).
type Fig4aRow struct {
	N       int
	Servers int
	// Elapsed is the total wall time on this machine (partitioning,
	// sharding, and all servers sharing the local cores).
	Elapsed time.Duration
	// CriticalPath is the slowest single server's anonymization time —
	// the wall time the paper's one-machine-per-server deployment would
	// observe.
	CriticalPath time.Duration
	Cost         int64
}

// Fig4a measures bulk anonymization time over increasing |D| with one
// curve per server-pool size, k fixed (the paper uses k=50).
func Fig4a(d Dataset, sizes, serverCounts []int, k int) ([]Fig4aRow, error) {
	var rows []Fig4aRow
	for _, n := range sizes {
		db, err := d.Sample(n)
		if err != nil {
			return nil, err
		}
		for _, s := range serverCounts {
			start := time.Now()
			// Sequential execution keeps the per-server critical-path
			// measurement honest on machines with fewer cores than
			// servers; see parallel.Options.Sequential.
			eng, err := parallel.NewEngineContext(d.ctx(), db, d.Bounds, parallel.Options{K: k, Servers: s, Sequential: true})
			if err != nil {
				return nil, err
			}
			cost, err := eng.TotalCost()
			if err != nil {
				return nil, err
			}
			rows = append(rows, Fig4aRow{
				N: db.Len(), Servers: s, Elapsed: time.Since(start),
				CriticalPath: eng.CriticalPath(), Cost: cost,
			})
		}
	}
	return rows, nil
}

// Fig4bRow reports anonymization time as k varies at fixed |D|
// (Figure 4(b)).
type Fig4bRow struct {
	K       int
	Elapsed time.Duration
	Cost    int64
}

// Fig4b measures single-server bulk anonymization across k at fixed size.
func Fig4b(d Dataset, n int, ks []int) ([]Fig4bRow, error) {
	db, err := d.Sample(n)
	if err != nil {
		return nil, err
	}
	var rows []Fig4bRow
	for _, k := range ks {
		start := time.Now()
		anon, err := core.NewAnonymizerContext(d.ctx(), db, d.Bounds, core.AnonymizerOptions{K: k})
		if err != nil {
			return nil, err
		}
		cost, err := anon.OptimalCost()
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig4bRow{K: k, Elapsed: time.Since(start), Cost: cost})
	}
	return rows, nil
}

// Fig5aRow compares average cloak areas of the four policies at one
// database size (Figure 5(a)).
type Fig5aRow struct {
	N              int
	Casper         float64
	PUB            float64
	PUQ            float64
	PolicyAware    float64
	RatioToCasper  float64 // policy-aware / Casper, the paper's <= 1.7 claim
	RatioToPUQ     float64 // policy-aware / PUQ, "nearly identical" claim
	PolicyAwareWin bool    // whether policy-aware beat PUQ outright
}

// runEngine resolves a registry engine and runs it over db under the
// dataset's observability context.
func runEngine(d Dataset, name string, db *location.DB, k int) (*lbs.Assignment, error) {
	eng, err := engine.Get(name)
	if err != nil {
		return nil, err
	}
	return eng.Anonymize(d.ctx(), db, d.Bounds, engine.Params{K: k})
}

// Fig5a computes the cost comparison of Section VI-B: every policy is
// resolved from the engine registry, so the four-way comparison is one
// loop over names.
func Fig5a(d Dataset, sizes []int, k int) ([]Fig5aRow, error) {
	var rows []Fig5aRow
	for _, n := range sizes {
		db, err := d.Sample(n)
		if err != nil {
			return nil, err
		}
		areas := make(map[string]float64, 4)
		for _, name := range []string{"casper", "pub", "puq", engine.DefaultName} {
			pol, err := runEngine(d, name, db, k)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", name, err)
			}
			areas[name] = pol.AvgArea()
		}
		row := Fig5aRow{
			N: db.Len(), Casper: areas["casper"], PUB: areas["pub"],
			PUQ: areas["puq"], PolicyAware: areas[engine.DefaultName],
		}
		row.RatioToCasper = row.PolicyAware / row.Casper
		row.RatioToPUQ = row.PolicyAware / row.PUQ
		row.PolicyAwareWin = row.PolicyAware <= row.PUQ
		rows = append(rows, row)
	}
	return rows, nil
}

// EngineRow is one engine's measurement in the cross-engine sweep: the
// cost/utility metrics of Section VI plus the first-principles anonymity
// levels from internal/verify.
type EngineRow struct {
	Name        string
	PolicyAware bool // registry capability flag
	AvgArea     float64
	Cost        int64
	Elapsed     time.Duration
	MinAware    int  // weakest policy-aware anonymity across users
	MinUnaware  int  // weakest policy-unaware anonymity across users
	OK          bool // verification verdict at the engine's claimed level
}

// EngineSweep runs every named registry engine over one sampled snapshot
// and verifies each result, generalizing the paper's fixed four-policy
// comparison to the full registry. Empty names sweeps all registered
// engines.
func EngineSweep(d Dataset, n, k int, names []string) ([]EngineRow, error) {
	db, err := d.Sample(n)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		names = engine.Names()
	}
	var rows []EngineRow
	for _, name := range names {
		eng, err := engine.Get(name)
		if err != nil {
			return nil, err
		}
		info, _ := engine.InfoOf(name)
		start := time.Now()
		pol, err := eng.Anonymize(d.ctx(), db, d.Bounds, engine.Params{K: k})
		if err != nil {
			return nil, fmt.Errorf("experiments: engine %s: %w", name, err)
		}
		elapsed := time.Since(start)
		rep := verify.Policy(pol, k)
		ok := rep.Masking && rep.PolicyUnaware
		if info.PolicyAware {
			ok = ok && rep.PolicyAware
		}
		rows = append(rows, EngineRow{
			Name: name, PolicyAware: info.PolicyAware,
			AvgArea: pol.AvgArea(), Cost: pol.Cost(), Elapsed: elapsed,
			MinAware: rep.MinAware, MinUnaware: rep.MinUnaware, OK: ok,
		})
	}
	return rows, nil
}

// Fig5bRow compares incremental maintenance with bulk recomputation for
// one fraction of moving users (Figure 5(b)).
type Fig5bRow struct {
	MovePercent    float64
	Incremental    time.Duration
	Bulk           time.Duration
	RowsRecomputed int
}

// Fig5b moves the given fractions of users (bounded by maxMoveMeters, the
// paper uses 200 m) and times incremental maintenance of the optimum
// configuration matrix against recomputation from scratch.
func Fig5b(d Dataset, n, k int, fractions []float64, maxMoveMeters float64) ([]Fig5bRow, error) {
	base, err := d.Sample(n)
	if err != nil {
		return nil, err
	}
	var rows []Fig5bRow
	for fi, f := range fractions {
		db := base.Clone()
		anon, err := core.NewAnonymizerContext(d.ctx(), db, d.Bounds, core.AnonymizerOptions{K: k})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(d.Seed + int64(fi)))
		moves := workload.PlanMoves(rng, db, f, maxMoveMeters, d.Bounds.MaxX)

		start := time.Now()
		for _, mv := range moves {
			if err := anon.Move(mv.Index, mv.To); err != nil {
				return nil, err
			}
		}
		recomputed := anon.Refresh()
		incremental := time.Since(start)
		incCost, err := anon.OptimalCost()
		if err != nil {
			return nil, err
		}

		start = time.Now()
		fresh, err := core.NewAnonymizerContext(d.ctx(), db, d.Bounds, core.AnonymizerOptions{K: k})
		if err != nil {
			return nil, err
		}
		bulkCost, err := fresh.OptimalCost()
		if err != nil {
			return nil, err
		}
		bulk := time.Since(start)
		if incCost != bulkCost {
			return nil, fmt.Errorf("experiments: incremental cost %d != bulk %d at %.1f%% movement",
				incCost, bulkCost, 100*f)
		}
		rows = append(rows, Fig5bRow{
			MovePercent: 100 * f, Incremental: incremental, Bulk: bulk, RowsRecomputed: recomputed,
		})
	}
	return rows, nil
}

// ParallelRow reports the cost divergence of the partitioned deployment
// from the single-server optimum (Section VI-D).
type ParallelRow struct {
	Jurisdictions int
	Cost          int64
	DivergencePct float64
}

// ParallelUtility measures the Section VI-D utility-loss stress test.
func ParallelUtility(d Dataset, n, k int, serverCounts []int) ([]ParallelRow, error) {
	db, err := d.Sample(n)
	if err != nil {
		return nil, err
	}
	anon, err := core.NewAnonymizerContext(d.ctx(), db, d.Bounds, core.AnonymizerOptions{K: k})
	if err != nil {
		return nil, err
	}
	opt, err := anon.OptimalCost()
	if err != nil {
		return nil, err
	}
	var rows []ParallelRow
	for _, s := range serverCounts {
		eng, err := parallel.NewEngineContext(d.ctx(), db, d.Bounds, parallel.Options{K: k, Servers: s})
		if err != nil {
			return nil, err
		}
		cost, err := eng.TotalCost()
		if err != nil {
			return nil, err
		}
		rows = append(rows, ParallelRow{
			Jurisdictions: eng.NumServers(),
			Cost:          cost,
			DivergencePct: 100 * (float64(cost) - float64(opt)) / float64(opt),
		})
	}
	return rows, nil
}

// UtilityRow reports the practical utility of a policy: the average size
// of the candidate answer the LBS returns for a cloaked nearest-neighbour
// request, which drives transfer and client-side filtering cost. This
// extends the paper's area-based cost metric with an end-to-end one.
type UtilityRow struct {
	Policy        string
	AvgCloakArea  float64
	AvgAnswerSize float64
}

// AnswerSize compares candidate nearest-neighbour answer sizes across the
// four policies over a synthetic POI catalogue of the given size.
func AnswerSize(d Dataset, n, k, pois int) ([]UtilityRow, error) {
	db, err := d.Sample(n)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(d.Seed + 777))
	catalogue := make([]lbs.POI, pois)
	for i := range catalogue {
		catalogue[i] = lbs.POI{
			ID:       fmt.Sprintf("poi%06d", i),
			Loc:      geo.Point{X: rng.Int31n(d.Bounds.MaxX), Y: rng.Int31n(d.Bounds.MaxY)},
			Category: "gas",
		}
	}
	store, err := lbs.NewPOIStore(catalogue, d.Bounds, 0)
	if err != nil {
		return nil, err
	}
	// Policies come from the engine registry, so rows carry stable
	// registry names.
	names := []string{"casper", "pub", "puq", engine.DefaultName}
	// Sample a fixed set of requesters across all policies.
	sampleN := 500
	if sampleN > db.Len() {
		sampleN = db.Len()
	}
	idx := rng.Perm(db.Len())[:sampleN]
	var rows []UtilityRow
	for _, name := range names {
		pol, err := runEngine(d, name, db, k)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", name, err)
		}
		total := 0
		for _, i := range idx {
			total += len(store.CandidateNearest(pol.CloakAt(i), "gas"))
		}
		rows = append(rows, UtilityRow{
			Policy:        name,
			AvgCloakArea:  pol.AvgArea(),
			AvgAnswerSize: float64(total) / float64(sampleN),
		})
	}
	return rows, nil
}

// HilbertRow compares the two policy-aware-safe schemes: the optimal
// tree-constrained policy of the paper against the HilbertCloak heuristic
// of [17], plus FindMBC [27] as the policy-unaware-only reference.
type HilbertRow struct {
	N                int
	OptimalAvgArea   float64
	HilbertAvgArea   float64
	FindMBCAvgArea   float64
	OptimalMinAnon   int
	HilbertMinAnon   int
	FindMBCAwareAnon int // policy-aware anonymity of FindMBC (typically 1)
}

// Hilbert runs the comparison at each size.
func Hilbert(d Dataset, sizes []int, k int) ([]HilbertRow, error) {
	var rows []HilbertRow
	for _, n := range sizes {
		db, err := d.Sample(n)
		if err != nil {
			return nil, err
		}
		anon, err := core.NewAnonymizerContext(d.ctx(), db, d.Bounds, core.AnonymizerOptions{K: k})
		if err != nil {
			return nil, err
		}
		opt, err := anon.Policy()
		if err != nil {
			return nil, err
		}
		hil, err := baseline.HilbertCloak(db, d.Bounds, k)
		if err != nil {
			return nil, err
		}
		mbc, err := baseline.FindMBC(db, d.Bounds, k)
		if err != nil {
			return nil, err
		}
		_, optMin := attacker.Audit(opt, k, attacker.PolicyAware)
		_, hilMin := attacker.Audit(hil, k, attacker.PolicyAware)
		rows = append(rows, HilbertRow{
			N:                db.Len(),
			OptimalAvgArea:   opt.AvgArea(),
			HilbertAvgArea:   hil.AvgArea(),
			FindMBCAvgArea:   mbc.Cost() / float64(db.Len()),
			OptimalMinAnon:   optMin,
			HilbertMinAnon:   hilMin,
			FindMBCAwareAnon: mbc.PolicyAwareAnonymity(),
		})
	}
	return rows, nil
}

// AdaptiveRow compares the static vertical binary tree with the
// adaptive-orientation DP (the Section V sketched variant).
type AdaptiveRow struct {
	N              int
	StaticAvgArea  float64
	AdaptiveAvg    float64
	CostRatio      float64 // adaptive / static, <= 1 by construction
	StaticElapsed  time.Duration
	AdaptiveElapse time.Duration
}

// Adaptive runs the orientation comparison at each size.
func Adaptive(d Dataset, sizes []int, k int) ([]AdaptiveRow, error) {
	var rows []AdaptiveRow
	for _, n := range sizes {
		db, err := d.Sample(n)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		anon, err := core.NewAnonymizerContext(d.ctx(), db, d.Bounds, core.AnonymizerOptions{K: k})
		if err != nil {
			return nil, err
		}
		staticCost, err := anon.OptimalCost()
		if err != nil {
			return nil, err
		}
		staticTime := time.Since(t0)

		t1 := time.Now()
		qt, err := tree.BuildContext(d.ctx(), db.Points(), d.Bounds, tree.Options{Kind: tree.Quad, MinCountToSplit: k})
		if err != nil {
			return nil, err
		}
		am, err := core.NewAdaptiveMatrix(qt, k, core.Options{})
		if err != nil {
			return nil, err
		}
		adaptiveCost, err := am.OptimalCost()
		if err != nil {
			return nil, err
		}
		adaptiveTime := time.Since(t1)
		rows = append(rows, AdaptiveRow{
			N:              db.Len(),
			StaticAvgArea:  float64(staticCost) / float64(db.Len()),
			AdaptiveAvg:    float64(adaptiveCost) / float64(db.Len()),
			CostRatio:      float64(adaptiveCost) / float64(staticCost),
			StaticElapsed:  staticTime,
			AdaptiveElapse: adaptiveTime,
		})
	}
	return rows, nil
}

// AdaptiveTable converts the orientation comparison.
func AdaptiveTable(rows []AdaptiveRow) Table {
	t := Table{Name: "adaptive-orientation", Header: []string{
		"users", "static_avg_area", "adaptive_avg_area", "cost_ratio", "static_ms", "adaptive_ms",
	}}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			itoa(r.N), f0(r.StaticAvgArea), f0(r.AdaptiveAvg), f3(r.CostRatio),
			ms(r.StaticElapsed), ms(r.AdaptiveElapse),
		})
	}
	return t
}

// TrajectoryRow records anonymity erosion across snapshots for a pinned
// request series (the future-work attacker).
type TrajectoryRow struct {
	Snapshot    int
	PerSnapshot int
	Composed    int
}

// TrajectoryErosion tracks one user across moving snapshots and measures
// how the intersected candidate set shrinks.
func TrajectoryErosion(d Dataset, n, k, snapshots int, target int) ([]TrajectoryRow, error) {
	db, err := d.Sample(n)
	if err != nil {
		return nil, err
	}
	db = db.Clone()
	if target < 0 || target >= db.Len() {
		target = db.Len() / 2
	}
	rng := rand.New(rand.NewSource(d.Seed + 999))
	var series []attacker.TrajectoryObservation
	var rows []TrajectoryRow
	for s := 0; s < snapshots; s++ {
		anon, err := core.NewAnonymizerContext(d.ctx(), db, d.Bounds, core.AnonymizerOptions{K: k})
		if err != nil {
			return nil, err
		}
		pol, err := anon.Policy()
		if err != nil {
			return nil, err
		}
		cloak := pol.CloakAt(target)
		series = append(series, attacker.TrajectoryObservation{
			Policy: pol, Cloak: cloak, Aware: attacker.PolicyAware,
		})
		rows = append(rows, TrajectoryRow{
			Snapshot:    s,
			PerSnapshot: len(attacker.Candidates(pol, cloak, attacker.PolicyAware)),
			Composed:    attacker.TrajectoryAnonymity(series),
		})
		workload.Apply(db, workload.PlanMoves(rng, db, 1.0, 400, d.Bounds.MaxX))
	}
	return rows, nil
}
