// Package sim is a discrete-event simulation of the whole
// privacy-conscious LBS ecosystem of Section II-B: users move between
// periodic location-database snapshots (Section II-A's update model),
// the CSP maintains the optimal policy-aware policy incrementally,
// requests flow through the caching CSP to the untrusted provider, and
// after every snapshot the attacker replays the Section III and
// Section VII attacks against the provider's log.
//
// It is the integration testbed a deployment would use to size k, the
// snapshot interval, and the server pool before going live.
package sim

import (
	"fmt"
	"math/rand"
	"time"

	"policyanon/internal/attacker"
	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/roadnet"
	"policyanon/internal/verify"
	"policyanon/internal/workload"
)

// Config parameterizes a simulation run.
type Config struct {
	// Users is the population size (required).
	Users int
	// Intersections for the synthetic map / road network; default Users/8.
	Intersections int
	// MapSide in meters (power of two); default 1<<14.
	MapSide int32
	// K is the anonymity parameter (required).
	K int
	// Snapshots is the number of location-database refreshes to simulate
	// (default 10). The snapshot interval is SnapshotSeconds.
	Snapshots int
	// SnapshotSeconds is the refresh period; default 10 s (the paper's
	// movement-bound interval).
	SnapshotSeconds float64
	// RequestProb is the probability that a user issues one request per
	// snapshot; default 0.1.
	RequestProb float64
	// POIs is the provider catalogue size; default 2000.
	POIs int
	// RoadNetwork selects Brinkhoff-style network movement instead of
	// the random-jitter model of Section VI-C.
	RoadNetwork bool
	// Continuous replaces the per-snapshot independent jitter with a
	// workload.MoveStream: users follow continuous trajectories (each
	// move bounded relative to the previous emitted position), the same
	// emission model the live motion pipeline ingests. Ignored under
	// RoadNetwork, which is already continuous.
	Continuous bool
	// MaxMoveMeters bounds jitter movement per snapshot (default 200, the
	// paper's value). Ignored under RoadNetwork.
	MaxMoveMeters float64
	// Seed makes the run deterministic.
	Seed int64
}

func (c Config) withDefaults() (Config, error) {
	if c.Users < 1 {
		return c, fmt.Errorf("sim: Users must be >= 1")
	}
	if c.K < 1 {
		return c, fmt.Errorf("sim: K must be >= 1")
	}
	if c.Users < c.K {
		return c, fmt.Errorf("sim: Users (%d) below K (%d)", c.Users, c.K)
	}
	if c.Intersections == 0 {
		c.Intersections = c.Users/8 + 1
	}
	if c.MapSide == 0 {
		c.MapSide = 1 << 14
	}
	if c.Snapshots == 0 {
		c.Snapshots = 10
	}
	if c.SnapshotSeconds == 0 {
		c.SnapshotSeconds = 10
	}
	if c.RequestProb == 0 {
		c.RequestProb = 0.1
	}
	if c.POIs == 0 {
		c.POIs = 2000
	}
	if c.MaxMoveMeters == 0 {
		c.MaxMoveMeters = 200
	}
	return c, nil
}

// SnapshotReport collects the metrics of one snapshot interval.
type SnapshotReport struct {
	Snapshot        int
	MaintenanceTime time.Duration
	RowsRecomputed  int
	// RowsExtracted counts tree nodes the policy-exhibition pass
	// re-assigned (|D| for full publishes); CloaksChanged counts per-user
	// cloak rewrites; Delta marks a copy-on-write delta publish (every
	// movement model's steady state).
	RowsExtracted  int
	CloaksChanged  int
	Delta          bool
	PolicyCost     int64
	AvgCloakArea   float64
	Requests       int
	ProviderTrips  int
	CacheHits      int64
	MinAnonymity   int
	FrequencyLeaks int
	AvgAnswerSize  float64
}

// Report is the outcome of a full run.
type Report struct {
	Config    Config
	Snapshots []SnapshotReport
	// BreachedSnapshots counts snapshots whose policy-aware audit found a
	// candidate set below k; always 0 unless the implementation is wrong.
	BreachedSnapshots int
}

// Run executes the simulation.
func Run(cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	bounds := geo.NewRect(0, 0, cfg.MapSide, cfg.MapSide)

	// Map + initial population.
	inter := make([]geo.Point, cfg.Intersections)
	for i := range inter {
		inter[i] = geo.Point{X: rng.Int31n(cfg.MapSide), Y: rng.Int31n(cfg.MapSide)}
	}
	var agents *roadnet.Agents
	db := location.New(cfg.Users)
	if cfg.RoadNetwork {
		net, err := roadnet.BuildNetwork(inter, bounds, 3)
		if err != nil {
			return nil, err
		}
		agents, err = roadnet.NewAgents(net, cfg.Users, cfg.Seed+1)
		if err != nil {
			return nil, err
		}
		for i, p := range agents.Positions() {
			if err := db.Add(fmt.Sprintf("u%06d", i), p); err != nil {
				return nil, err
			}
		}
	} else {
		for i := 0; i < cfg.Users; i++ {
			c := inter[rng.Intn(len(inter))]
			p := geo.Point{
				X: jitter(rng, c.X, 500, cfg.MapSide),
				Y: jitter(rng, c.Y, 500, cfg.MapSide),
			}
			if err := db.Add(fmt.Sprintf("u%06d", i), p); err != nil {
				return nil, err
			}
		}
	}

	// Provider catalogue.
	cats := []string{"gas", "rest", "hosp", "atm"}
	pois := make([]lbs.POI, cfg.POIs)
	for i := range pois {
		pois[i] = lbs.POI{
			ID:       fmt.Sprintf("poi%06d", i),
			Loc:      geo.Point{X: rng.Int31n(cfg.MapSide), Y: rng.Int31n(cfg.MapSide)},
			Category: cats[rng.Intn(len(cats))],
		}
	}
	store, err := lbs.NewPOIStore(pois, bounds, 0)
	if err != nil {
		return nil, err
	}

	anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: cfg.K})
	if err != nil {
		return nil, err
	}
	// Every movement model publishes through the one delta-publication
	// chain: each snapshot extracts only the changed cloaks and derives the
	// next published policy copy-on-write, so a small batch of moves costs
	// O(dirty subtrees) instead of O(|D|).
	chain := core.NewPublisher(anon)
	var stream *workload.MoveStream
	if cfg.Continuous && !cfg.RoadNetwork {
		stream = workload.NewMoveStream(cfg.Seed+2, db, cfg.MaxMoveMeters, cfg.MapSide)
	}
	report := &Report{Config: cfg}
	for s := 0; s < cfg.Snapshots; s++ {
		// 1. Movement + incremental maintenance.
		start := time.Now()
		if s > 0 {
			var moves []workload.Move
			switch {
			case agents != nil:
				agents.Step(cfg.SnapshotSeconds)
				for i, p := range agents.Positions() {
					if db.At(i).Loc != p {
						moves = append(moves, workload.Move{Index: i, To: p})
					}
				}
			case stream != nil:
				// Continuous trajectories: the same 5% of users per
				// interval, but each from its previous emitted position.
				moves = stream.NextBatch(max(cfg.Users/20, 1))
			default:
				moves = workload.PlanMoves(rng, db, 0.05, cfg.MaxMoveMeters, cfg.MapSide)
			}
			for _, mv := range moves {
				if err := chain.Move(mv.Index, mv.To); err != nil {
					return nil, err
				}
			}
		}
		// Verify rather than trust before installing the policy; the
		// verification is timed apart from maintenance.
		var verifyTime time.Duration
		pub, err := chain.Publish(func(a *lbs.Assignment) error {
			vstart := time.Now()
			rep := verify.Policy(a, cfg.K)
			verifyTime = time.Since(vstart)
			if !rep.OK() {
				return fmt.Errorf("sim: snapshot %d policy failed verification: %s", s, rep.Problems[0])
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		maintenance := time.Since(start) - verifyTime
		policy := pub.Policy

		// 2. Fresh provider + caching CSP for this snapshot epoch.
		provider := lbs.NewRecordingProvider(lbs.NewPOIProvider(store))
		csp := lbs.NewCSP(policy, provider)

		// 3. Requests.
		requests, answerTotal := 0, 0
		for i := 0; i < db.Len(); i++ {
			if rng.Float64() >= cfg.RequestProb {
				continue
			}
			rec := db.At(i)
			_, answer, err := csp.Serve(lbs.ServiceRequest{
				UserID: rec.UserID, Loc: rec.Loc,
				Params: []lbs.Param{{Name: "cat", Value: cats[rng.Intn(len(cats))]}},
			})
			if err != nil {
				return nil, err
			}
			requests++
			answerTotal += len(answer)
		}
		hits, _ := csp.CacheStats()

		// 4. The attacks, replayed over what actually leaked.
		log := provider.Log()
		minAnon := db.Len()
		for _, ar := range log {
			if n := len(attacker.Candidates(policy, ar.Cloak, attacker.PolicyAware)); n < minAnon {
				minAnon = n
			}
		}
		if len(log) == 0 {
			minAnon = 0
		}
		leaks := 0
		for _, f := range attacker.FrequencyAttack(policy, log) {
			if f.Exposed {
				leaks++
			}
		}

		sr := SnapshotReport{
			Snapshot:        s,
			MaintenanceTime: maintenance,
			RowsRecomputed:  pub.Rows,
			RowsExtracted:   pub.RowsExtracted,
			CloaksChanged:   pub.CloaksChanged,
			Delta:           pub.Delta,
			PolicyCost:      policy.Cost(),
			AvgCloakArea:    policy.AvgArea(),
			Requests:        requests,
			ProviderTrips:   len(log),
			CacheHits:       hits,
			MinAnonymity:    minAnon,
			FrequencyLeaks:  leaks,
		}
		if requests > 0 {
			sr.AvgAnswerSize = float64(answerTotal) / float64(requests)
		}
		if len(log) > 0 && minAnon < cfg.K {
			report.BreachedSnapshots++
		}
		report.Snapshots = append(report.Snapshots, sr)
	}
	return report, nil
}

func jitter(rng *rand.Rand, v int32, sigma float64, side int32) int32 {
	x := float64(v) + rng.NormFloat64()*sigma
	if x < 0 {
		return 0
	}
	if x >= float64(side) {
		return side - 1
	}
	return int32(x)
}
