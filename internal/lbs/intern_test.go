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
