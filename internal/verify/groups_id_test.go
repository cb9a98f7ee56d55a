package verify_test

// Differential oracle for interned cloaks: an assignment stores a table of
// rectangles and one id per record, and the survey groups records by id.
// Grouping by id must be grouping by rectangle — over every registered
// engine's policy, along delta chains long enough to reuse and compact the
// table, and on tables that hold one rectangle under two ids — and the
// gate must report exactly what it reports for the same cloaks interned
// once per rectangle.
//
//	go test -race ./internal/verify -run TestGroupsByID -v

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"policyanon/internal/attacker"
	"policyanon/internal/core"
	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/verify"
)

// refGroups groups the records by the rectangle CloakAt reads, members
// ascending, groups in Groups order.
func refGroups(a *lbs.Assignment) []lbs.Group {
	byCloak := make(map[geo.Rect][]int)
	for i := range a.Len() {
		c := a.CloakAt(i)
		byCloak[c] = append(byCloak[c], i)
	}
	groups := make([]lbs.Group, 0, len(byCloak))
	for _, c := range refCloaks(a) {
		groups = append(groups, lbs.Group{Cloak: c, Members: byCloak[c]})
	}
	return groups
}

// sameGroups holds the groups of a, on several goroutine counts and
// through its survey, to the groups by rectangle.
func sameGroups(t *testing.T, name string, a *lbs.Assignment) {
	t.Helper()
	want := refGroups(a)
	for _, w := range []int{1, 2, 3} {
		if got := a.GroupsOn(w); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: groups by id on %d goroutines differ from groups by rectangle", name, w)
		}
	}
	if got := attacker.SurveyOf(a).Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: survey groups differ from groups by rectangle", name)
	}
}

func TestGroupsByIDEveryEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const k = 5
	db := randomDB(t, rng, 300, side)
	for _, name := range engine.Names() {
		e, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		a, err := e.Anonymize(context.Background(), db.Clone(), mapBounds, engine.Params{K: k})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameGroups(t, name, a)
		check(t, name, a, k)
	}
}

// recloak re-issues up to m random records a masking cell of a random
// size: one the table likely holds already (an aligned cell of the map),
// or, one time in four, a fresh rectangle around the record.
func recloak(rng *rand.Rand, a *lbs.Assignment, m int) []lbs.CloakChange {
	var changes []lbs.CloakChange
	seen := make(map[int]bool)
	for range m {
		i := rng.Intn(a.Len())
		if seen[i] {
			continue
		}
		seen[i] = true
		p := a.DB().At(i).Loc
		var c geo.Rect
		if rng.Intn(4) == 0 {
			r := 1 + rng.Int31n(9)
			c = geo.NewRect(p.X-r, p.Y-r, p.X+r, p.Y+r)
		} else {
			s := []int32{16, 32, 64, 128}[rng.Intn(4)]
			c = geo.NewRect(p.X/s*s, p.Y/s*s, p.X/s*s+s, p.Y/s*s+s)
		}
		changes = append(changes, lbs.CloakChange{Index: i, Old: a.CloakAt(i), New: c})
	}
	return changes
}

func TestGroupsByIDDeltaChains(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, k := 150+rng.Intn(150), 3+rng.Intn(4)
		live := randomDB(t, rng, n, side)
		anon, err := core.NewAnonymizer(live, mapBounds, core.AnonymizerOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := anon.Policy()
		if err != nil {
			t.Fatal(err)
		}
		a := rebind(t, pol)
		for step := range 200 {
			changes := recloak(rng, a, 1+rng.Intn(8))
			next, err := a.ApplyDelta(nil, changes)
			if err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			a = next
			groups := a.Groups()
			if limit := 2*len(groups) + len(changes); a.TableLen() > limit {
				t.Fatalf("seed %d step %d: table of %d for %d cloaks, bound %d", seed, step, a.TableLen(), len(groups), limit)
			}
			name := fmt.Sprintf("seed %d step %d", seed, step)
			sameGroups(t, name, a)
			if step%20 == 0 {
				check(t, name, a, k)
			}
		}
	}
}

// TestGroupsByIDDuplicateTable builds a policy whose table holds every
// rectangle under two ids, records alternating between them, plus an entry
// no record holds: it groups as one id per rectangle does, the gate's
// reports match those of the same cloaks interned once per rectangle at a
// passing and a failing k, delta chains stay in step, and a wrong delta is
// still refused.
func TestGroupsByIDDuplicateTable(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const k = 4
	live := randomDB(t, rng, 240, side)
	anon, err := core.NewAnonymizer(live, mapBounds, core.AnonymizerOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		t.Fatal(err)
	}
	cloaks := pol.Cloaks()
	first := make(map[geo.Rect]int32)
	var table []geo.Rect
	for _, c := range cloaks {
		if _, ok := first[c]; !ok {
			first[c] = int32(len(table))
			table = append(table, c)
		}
	}
	distinct := int32(len(table))
	table = append(append(table, table...), mapBounds)
	ids := make([]int32, len(cloaks))
	for i, c := range cloaks {
		ids[i] = first[c] + distinct*int32(i%2)
	}
	dup, err := lbs.NewTableAssignment(pol.DB().Clone(), table, ids)
	if err != nil {
		t.Fatal(err)
	}
	once, err := lbs.NewAssignment(pol.DB().Clone(), cloaks)
	if err != nil {
		t.Fatal(err)
	}
	if dup.TableLen() != 2*once.TableLen()+1 {
		t.Fatalf("duplicate table has %d entries, want %d", dup.TableLen(), 2*once.TableLen()+1)
	}
	sameAsOnce := func(name string, dup, once *lbs.Assignment) {
		t.Helper()
		sameGroups(t, name, dup)
		if !reflect.DeepEqual(dup.Groups(), once.Groups()) {
			t.Fatalf("%s: groups differ from one id per rectangle", name)
		}
		for _, kk := range []int{k, 3 * k} {
			got, want := verify.Policy(dup, kk), verify.Policy(once, kk)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, k=%d: gate reports %v %q, one id per rectangle %v %q", name, kk, got, got.Problems, want, want.Problems)
			}
			check(t, fmt.Sprintf("%s, k=%d", name, kk), dup, kk)
		}
	}
	sameAsOnce("flat", dup, once)
	if r := verify.Policy(dup, 3*k); r.OK() {
		t.Fatal("no group breaches 3k: the failing case tests nothing")
	}

	// Both chains take the same deltas; the Old of a record held under the
	// second id is its rectangle, so it must match.
	for step := range 30 {
		changes := recloak(rng, dup, 1+rng.Intn(6))
		twin := append([]lbs.CloakChange(nil), changes...)
		if dup, err = dup.ApplyDelta(nil, changes); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if once, err = once.ApplyDelta(nil, twin); err != nil {
			t.Fatalf("step %d, one id per rectangle: %v", step, err)
		}
		if step%10 == 0 {
			sameAsOnce(fmt.Sprintf("delta step %d", step), dup, once)
		}
	}

	// A wrong delta is refused whichever id holds the record's rectangle,
	// and leaves the parent deriving correctly.
	for _, i := range []int{0, 1} {
		loc, old := dup.DB().At(i).Loc, dup.CloakAt(i)
		bad := geo.NewRect(old.MinX-1, old.MinY, old.MaxX, old.MaxY)
		if _, err := dup.ApplyDelta(nil, []lbs.CloakChange{{Index: i, Old: bad, New: old}}); !errors.Is(err, lbs.ErrDeltaMismatch) {
			t.Fatalf("record %d, wrong Old: %v, want ErrDeltaMismatch", i, err)
		}
		far := geo.NewRect(loc.X+300, loc.Y+300, loc.X+301, loc.Y+301)
		if _, err := dup.ApplyDelta(nil, []lbs.CloakChange{{Index: i, Old: old, New: far}}); !errors.Is(err, lbs.ErrNotMasking) {
			t.Fatalf("record %d, non-masking New: %v, want ErrNotMasking", i, err)
		}
	}
	changes := recloak(rng, dup, 5)
	twin := append([]lbs.CloakChange(nil), changes...)
	if dup, err = dup.ApplyDelta(nil, changes); err != nil {
		t.Fatal(err)
	}
	if once, err = once.ApplyDelta(nil, twin); err != nil {
		t.Fatal(err)
	}
	sameAsOnce("after refused deltas", dup, once)
}
