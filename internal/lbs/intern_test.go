package lbs

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"policyanon/internal/geo"
)

// TestSiblingDeltasStayApart derives several children from one parent —
// the first takes over the parent's chain state and the table's spare
// capacity, the others work on copies — and grows each into its own
// chain. Every link must read back exactly the cloaks its own deltas
// wrote, whatever its siblings appended, and hold its table to twice its
// distinct cloaks plus its last delta's changes.
func TestSiblingDeltasStayApart(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	root := groupedAssignment(t, rng, 700)
	rootWant := root.Cloaks()
	type chain struct {
		a    *Assignment
		want []geo.Rect
	}
	var chains []chain
	for range 4 {
		chains = append(chains, chain{root, root.Cloaks()})
	}
	for step := range 60 {
		for c := range chains {
			ch := &chains[c]
			next := randomDelta(t, rng, ch.a)
			for _, x := range next.Delta().Cloaks {
				ch.want[x.Index] = x.New
			}
			ch.a = next
			if got := ch.a.Cloaks(); !reflect.DeepEqual(got, ch.want) {
				t.Fatalf("step %d, chain %d: cloaks differ from the ones its deltas wrote", step, c)
			}
			if limit := 2*len(ch.a.Groups()) + len(next.Delta().Cloaks); ch.a.TableLen() > limit {
				t.Fatalf("step %d, chain %d: table of %d, bound %d", step, c, ch.a.TableLen(), limit)
			}
		}
	}
	if got := root.Cloaks(); !reflect.DeepEqual(got, rootWant) {
		t.Fatal("the shared root changed")
	}
}

// TestRebind moves a flat and a paged policy onto clones of their
// snapshots: the cloaks, cost and groups carry over, a version is minted,
// and a snapshot whose record left its cloak is refused.
func TestRebind(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	flat := groupedAssignment(t, rng, 600)
	paged := randomDelta(t, rng, randomDelta(t, rng, flat))
	for name, a := range map[string]*Assignment{"flat": flat, "paged": paged} {
		b, err := a.Rebind(a.DB().Clone())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(b.Cloaks(), a.Cloaks()) || b.Cost() != a.Cost() || !reflect.DeepEqual(b.Groups(), a.Groups()) {
			t.Fatalf("%s: the rebound policy differs", name)
		}
		if b.Version() <= a.Version() || b.Delta() != nil {
			t.Fatalf("%s: version %d after %d, delta %v", name, b.Version(), a.Version(), b.Delta())
		}
		// The rebound policy derives on its own table.
		if _, err := b.ApplyDelta(nil, []CloakChange{{Index: 3, Old: b.CloakAt(3), New: geo.NewRect(0, 0, 1<<10, 1<<10)}}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.CloakAt(3) != b.CloakAt(3) {
			t.Fatalf("%s: a delta of the rebound policy reached its source", name)
		}
		moved := a.DB().Clone()
		c := a.CloakAt(5)
		moved.MoveAt(5, geo.Point{X: c.MaxX + 1, Y: c.MaxY + 1})
		if _, err := a.Rebind(moved); !errors.Is(err, ErrNotMasking) {
			t.Fatalf("%s: rebinding onto a snapshot that left a cloak: %v, want ErrNotMasking", name, err)
		}
	}
}

// TestNewTableAssignmentChecksIDs refuses an id outside the table and a
// table entry that does not mask its record, and sums the cost through
// the table.
func TestNewTableAssignmentChecksIDs(t *testing.T) {
	a := deltaAssignment(t, 40)
	table := append(a.Cloaks(), geo.NewRect(-5, -5, -4, -4))
	ids := make([]int32, a.Len())
	for i := range ids {
		ids[i] = int32(i)
	}
	b, err := NewTableAssignment(a.DB(), table, ids)
	if err != nil {
		t.Fatal(err)
	}
	if b.Cost() != a.Cost() || b.TableLen() != a.Len()+1 {
		t.Fatalf("cost %d (want %d), table %d", b.Cost(), a.Cost(), b.TableLen())
	}
	ids[7] = int32(len(table))
	if _, err := NewTableAssignment(a.DB(), table, ids); err == nil {
		t.Fatal("an id past the table was accepted")
	}
	ids[7] = int32(len(table) - 1)
	if _, err := NewTableAssignment(a.DB(), table, ids); !errors.Is(err, ErrNotMasking) {
		t.Fatalf("a non-masking entry: %v, want ErrNotMasking", err)
	}
}
