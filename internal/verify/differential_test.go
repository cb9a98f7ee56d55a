package verify_test

// Differential oracle for the policy survey and everything that reads it:
// verify.Policy, verify.Delta, attacker.Audit, attacker.GroupSizes and the
// audit package's per-request candidate sizes are compared, on generated
// assignments, with a brute-force reference that knows the policy only
// through CloakAt and counts candidates only through attacker.Candidates
// (the literal Definition 5 scan). Reports must be reflect.DeepEqual, down
// to the order of Problems and the contents of Witness.
//
//	go test -race ./internal/verify -run TestDifferential -v

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"policyanon/internal/attacker"
	"policyanon/internal/audit"
	"policyanon/internal/baseline"
	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
	"policyanon/internal/metrics"
	"policyanon/internal/verify"
)

const side = 256

var mapBounds = geo.NewRect(0, 0, side, side)

// refCloaks returns the distinct issued cloaks in Groups order.
func refCloaks(a *lbs.Assignment) []geo.Rect {
	seen := make(map[geo.Rect]bool)
	var cloaks []geo.Rect
	for i := 0; i < a.Len(); i++ {
		if c := a.CloakAt(i); !seen[c] {
			seen[c] = true
			cloaks = append(cloaks, c)
		}
	}
	sort.Slice(cloaks, func(i, j int) bool {
		a, b := cloaks[i], cloaks[j]
		switch {
		case a.MinX != b.MinX:
			return a.MinX < b.MinX
		case a.MinY != b.MinY:
			return a.MinY < b.MinY
		case a.MaxX != b.MaxX:
			return a.MaxX < b.MaxX
		}
		return a.MaxY < b.MaxY
	})
	return cloaks
}

// refAudit is attacker.Audit by one Candidates scan per cloak.
func refAudit(a *lbs.Assignment, k int, aw attacker.Awareness) (breaches []attacker.Breach, min int) {
	if a.Len() == 0 {
		return nil, 0
	}
	min = a.Len() + 1
	for _, c := range refCloaks(a) {
		cands := attacker.Candidates(a, c, aw)
		if len(cands) < min {
			min = len(cands)
		}
		if len(cands) < k {
			breaches = append(breaches, attacker.Breach{Cloak: c, Candidates: cands})
		}
	}
	return breaches, min
}

func refMask(r *verify.Report, a *lbs.Assignment, i int) {
	if rec := a.DB().At(i); !a.CloakAt(i).ContainsClosed(rec.Loc) {
		r.Masking = false
		r.Problems = append(r.Problems, fmt.Sprintf(
			"cloak %v of user %q does not contain her location %v", a.CloakAt(i), rec.UserID, rec.Loc))
	}
}

func refAnonymity(r *verify.Report, a *lbs.Assignment) {
	aware, minAware := refAudit(a, r.K, attacker.PolicyAware)
	r.MinAware, r.PolicyAware = minAware, len(aware) == 0
	for _, b := range aware {
		r.Problems = append(r.Problems, "policy-aware: "+b.String())
	}
	unaware, minUnaware := refAudit(a, r.K, attacker.PolicyUnaware)
	r.MinUnaware, r.PolicyUnaware = minUnaware, len(unaware) == 0
	for _, b := range unaware {
		r.Problems = append(r.Problems, "policy-unaware: "+b.String())
	}
	if r.PolicyAware && !r.PolicyUnaware {
		r.Problems = append(r.Problems, "Proposition 1 violated: aware-safe but unaware-breached")
	}
}

// refWitness builds the k PREs from Candidates and validates every one
// through the by-id lookups, comparing senders pairwise.
func refWitness(a *lbs.Assignment, k int) ([]map[geo.Rect]string, error) {
	cloaks := refCloaks(a)
	witness := make([]map[geo.Rect]string, k)
	for i := range witness {
		witness[i] = make(map[geo.Rect]string)
	}
	for _, c := range cloaks {
		cands := attacker.Candidates(a, c, attacker.PolicyAware)
		if len(cands) < k {
			return nil, fmt.Errorf("cloak %v admits only %d PREs", c, len(cands))
		}
		for i := 0; i < k; i++ {
			witness[i][c] = cands[i]
		}
	}
	for i, pre := range witness {
		for _, cloak := range cloaks {
			user := pre[cloak]
			loc, err := a.DB().Lookup(user)
			if err != nil {
				return nil, fmt.Errorf("PRE %d maps %v to unknown user %q", i, cloak, user)
			}
			if back, err := a.CloakOf(user); err != nil || back != cloak {
				return nil, fmt.Errorf("PRE %d not reproduced by the policy for %q", i, user)
			}
			if !cloak.ContainsClosed(loc) {
				return nil, fmt.Errorf("PRE %d violates masking for %q", i, user)
			}
			for j := 0; j < i; j++ {
				if witness[j][cloak] == user {
					return nil, fmt.Errorf("PREs %d and %d collide on %v", i, j, cloak)
				}
			}
		}
	}
	return witness, nil
}

func refPolicy(a *lbs.Assignment, k int) *verify.Report {
	r := &verify.Report{K: k, Users: a.Len(), Masking: true}
	if k < 1 {
		r.Problems = append(r.Problems, fmt.Sprintf("k=%d is not a valid anonymity level", k))
		return r
	}
	for i := 0; i < a.Len(); i++ {
		refMask(r, a, i)
	}
	refAnonymity(r, a)
	if r.PolicyAware && a.Len() > 0 {
		if w, err := refWitness(a, k); err != nil {
			r.Problems = append(r.Problems, "witness construction failed: "+err.Error())
		} else {
			r.Witness = w
		}
	}
	return r
}

func refDelta(a *lbs.Assignment, k int) *verify.Report {
	d := a.Delta()
	if d == nil || k < 1 {
		r := refPolicy(a, k)
		r.DeltaScoped = d != nil
		return r
	}
	r := &verify.Report{K: k, Users: a.Len(), Masking: true, DeltaScoped: true}
	for _, c := range d.Cloaks {
		refMask(r, a, c.Index)
	}
	for _, mv := range d.Moves {
		refMask(r, a, mv.Index)
	}
	refAnonymity(r, a)
	return r
}

// check holds every fast path to the reference on one assignment.
func check(t *testing.T, name string, a *lbs.Assignment, k int) *verify.Report {
	t.Helper()
	same := func(what string, got, want *verify.Report) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: %s differs from the reference (witness equal: %v)\n got: %v %q\nwant: %v %q", name, what,
				reflect.DeepEqual(got.Witness, want.Witness), got, got.Problems, want, want.Problems)
		}
	}
	got := verify.Policy(a, k)
	same("verify.Policy", got, refPolicy(a, k))
	same("verify.Delta", verify.Delta(a, k), refDelta(a, k))
	cloaks := refCloaks(a)
	aud := audit.New(metrics.NewRegistry(), audit.Options{})
	for _, aw := range []attacker.Awareness{attacker.PolicyAware, attacker.PolicyUnaware} {
		gotB, gotMin := attacker.Audit(a, k, aw)
		wantB, wantMin := refAudit(a, k, aw)
		if gotMin != wantMin || !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("%s: attacker.Audit(%v) = %v, %d; reference %v, %d", name, aw, gotB, gotMin, wantB, wantMin)
		}
		sizes := attacker.GroupSizes(a, aw)
		if len(sizes) != len(cloaks) {
			t.Fatalf("%s: GroupSizes(%v) has %d entries for %d cloaks", name, aw, len(sizes), len(cloaks))
		}
		for g, c := range cloaks {
			if want := len(attacker.Candidates(a, c, aw)); sizes[g] != want {
				t.Fatalf("%s: GroupSizes(%v)[%d] = %d for %v, Candidates finds %d", name, aw, g, sizes[g], c, want)
			}
		}
	}
	// The request audit's candidate sizes: every issued cloak, and two
	// rectangles the policy does not issue (nobody is assigned them).
	for _, c := range append(cloaks, mapBounds, geo.NewRect(3, 3, 40, 77)) {
		s := aud.ObserveRequest(context.Background(), "diff", a, c, k)
		aware := len(attacker.Candidates(a, c, attacker.PolicyAware))
		unaware := len(attacker.Candidates(a, c, attacker.PolicyUnaware))
		if s.KAware != aware || s.KUnaware != unaware {
			t.Fatalf("%s: request audit of %v saw %d/%d candidates, Candidates finds %d/%d",
				name, c, s.KAware, s.KUnaware, aware, unaware)
		}
	}
	return got
}

func randomDB(t *testing.T, rng *rand.Rand, n int, span int32) *location.DB {
	t.Helper()
	db := location.New(n)
	for i := 0; i < n; i++ {
		if err := db.Add(fmt.Sprintf("u%04d", i), geo.Point{X: rng.Int31n(span), Y: rng.Int31n(span)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// rebind publishes a policy the way the serving stack does: flat storage
// over a snapshot nobody else writes.
func rebind(t *testing.T, pol *lbs.Assignment) *lbs.Assignment {
	t.Helper()
	a, err := lbs.NewAssignment(pol.DB().Clone(), pol.Cloaks())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDifferentialOracle(t *testing.T) {
	var passing, awareBreached, unawareBreached, unmasked, paged int
	note := func(r *verify.Report) {
		switch {
		case r.OK():
			passing++
		case !r.Masking:
			unmasked++
		case !r.PolicyUnaware:
			unawareBreached++
		case !r.PolicyAware:
			awareBreached++
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, k := 120+rng.Intn(200), 3+rng.Intn(6)
		// Seeds alternate between spread-out users and users piled onto a
		// 12x12 lattice (many exact duplicates of one location).
		span := int32(side)
		if seed%2 == 0 {
			span = 12
		}
		name := fmt.Sprintf("seed %d (n=%d k=%d span=%d)", seed, n, k, span)
		live := randomDB(t, rng, n, span)
		anon, err := core.NewAnonymizer(live, mapBounds, core.AnonymizerOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := anon.Policy()
		if err != nil {
			t.Fatal(err)
		}
		pub := rebind(t, pol)
		note(check(t, name+" optimal, flat", pub, k))

		// Paged storage: several generations of the real delta chain.
		for gen := 1; gen <= 4; gen++ {
			var moves []lbs.Move
			moved := make(map[int]bool)
			for len(moves) < 1+rng.Intn(12) {
				i := rng.Intn(n)
				if moved[i] {
					continue
				}
				moved[i] = true
				to := geo.Point{X: rng.Int31n(span), Y: rng.Int31n(span)}
				moves = append(moves, lbs.Move{Index: i, From: live.At(i).Loc, To: to})
				if err := anon.Move(i, to); err != nil {
					t.Fatal(err)
				}
			}
			anon.Refresh()
			changes, _, err := anon.Matrix().ExtractDelta()
			if err != nil {
				t.Fatal(err)
			}
			if pub, err = pub.ApplyDelta(moves, changes); err != nil {
				t.Fatal(err)
			}
			paged++
			note(check(t, fmt.Sprintf("%s optimal, delta generation %d", name, gen), pub, k))
		}

		// A delta that shrinks one user's cloak to her own location still
		// masks, so ApplyDelta takes it; both attackers now single her out.
		at := pub.DB().At(0).Loc
		shrunk, err := pub.ApplyDelta(nil, []lbs.CloakChange{{
			Index: 0, Old: pub.CloakAt(0), New: geo.NewRect(at.X, at.Y, at.X, at.Y),
		}})
		if err != nil {
			t.Fatal(err)
		}
		note(check(t, name+" shrunk cloak, paged", shrunk, k))

		// Example 1: k-inside baselines satisfy the policy-unaware
		// attacker and (usually) not the policy-aware one.
		for _, build := range []func(*location.DB, geo.Rect, int) (*lbs.Assignment, error){baseline.Casper, baseline.PUQ} {
			kin, err := build(pub.DB().Clone(), mapBounds, k)
			if err != nil {
				t.Fatal(err)
			}
			note(check(t, name+" k-inside baseline", kin, k))
		}

		// Masking violations: users walk out of their cloaks after the
		// policy was surveyed, so the survey must be retaken, the masking
		// problems listed in record order and the witness refused. Once on
		// flat storage, once on the paged end of the delta chain.
		for _, stale := range []*lbs.Assignment{rebind(t, pub), pub} {
			for j := 0; j < 3; j++ {
				i := rng.Intn(n)
				c := stale.CloakAt(i)
				out := geo.Point{X: (c.MaxX + 7) % side, Y: (c.MaxY + 7) % side}
				if c.ContainsClosed(out) {
					continue
				}
				stale.DB().MoveAt(i, out)
			}
			note(check(t, name+" walked out of their cloaks", stale, k))
		}
	}
	// Invalid k short-circuits identically.
	one, err := lbs.NewAssignment(randomDB(t, rand.New(rand.NewSource(9)), 1, side), []geo.Rect{mapBounds})
	if err != nil {
		t.Fatal(err)
	}
	check(t, "k=0", one, 0)

	t.Logf("reports compared: %d passing, %d policy-aware breached, %d policy-unaware breached, %d unmasked; %d on paged storage",
		passing, awareBreached, unawareBreached, unmasked, paged)
	if passing == 0 || awareBreached == 0 || unawareBreached == 0 || unmasked == 0 {
		t.Fatal("the generated inputs missed a class of report")
	}
}

// TestDifferentialGridFallback pins the one snapshot location.NewGrid
// refuses — a coordinate at the int32 limit, whose half-open bounds
// overflow — so the survey counts policy-unaware candidates by scanning:
// the answers must not change and the fallback must be reported.
func TestDifferentialGridFallback(t *testing.T) {
	db, err := location.FromRecords([]location.Record{
		{UserID: "a", Loc: geo.Point{X: 1, Y: 1}},
		{UserID: "b", Loc: geo.Point{X: 2, Y: 2}},
		{UserID: "edge", Loc: geo.Point{X: math.MaxInt32, Y: 5}},
		{UserID: "d", Loc: geo.Point{X: 9, Y: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	near := geo.NewRect(0, 0, 4, 4)
	far := geo.Rect{MinX: 9, MinY: 0, MaxX: math.MaxInt32, MaxY: 8}
	a, err := lbs.NewAssignment(db, []geo.Rect{near, near, far, far})
	if err != nil {
		t.Fatal(err)
	}
	if attacker.SurveyOf(a).IndexErr() == nil {
		t.Fatal("a grid was built over bounds that overflow int32")
	}
	if r := check(t, "int32 limit", a, 2); !r.OK() {
		t.Fatalf("pairing policy failed verification: %v", r.Problems)
	}
}
