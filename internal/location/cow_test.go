package location

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"policyanon/internal/geo"
)

// cowModel is one snapshot of the family runCOW grows, beside the deep
// copy of the records it must read.
type cowModel struct {
	db   *DB
	want []Record
}

// runCOW applies the interleaving of CloneWithMoves, MoveAt, Move and Add
// that ops spells to a growing family of flat and paged snapshots, and
// after every step holds each snapshot to its deep-copy model: its length,
// every record, and the index of every user ever added anywhere. A write
// must advance the written snapshot's Version and no other's.
func runCOW(t *testing.T, ops []byte) {
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	point := func() geo.Point { return geo.Point{X: int32(next()), Y: int32(next())} }
	// Up to three pages and a partial fourth, so writes cross page edges.
	recs := make([]Record, next()+next()+next()/2)
	for i := range recs {
		recs[i] = Record{UserID: "u" + strconv.Itoa(i), Loc: geo.Point{X: int32(i % 7), Y: int32(i % 11)}}
	}
	root, err := FromRecords(recs)
	if err != nil {
		t.Fatal(err)
	}
	family := []*cowModel{{db: root, want: append([]Record(nil), recs...)}}
	ids := make([]string, 0, len(recs))
	for _, r := range recs {
		ids = append(ids, r.UserID)
	}
	for step := 0; len(ops) > 0; step++ {
		op, m := next()%5, family[next()%len(family)]
		versions := make([]uint64, len(family))
		for i, f := range family {
			versions[i] = f.db.Version()
		}
		wrote := true
		switch op {
		case 0, 1: // derive a child; op 1 moves nothing
			moves := map[int]geo.Point{}
			for n := next() % 9; op == 0 && n > 0 && len(m.want) > 0; n-- {
				moves[next()*len(m.want)/256] = point()
			}
			child := &cowModel{db: m.db.CloneWithMoves(moves), want: append([]Record(nil), m.want...)}
			for i, to := range moves {
				child.want[i].Loc = to
			}
			if got, want := child.db.Version(), m.db.Version()+uint64(len(moves)); got != want {
				t.Fatalf("step %d: child version %d, want %d", step, got, want)
			}
			if len(family) < 12 {
				family = append(family, child)
			} else { // retire a snapshot to keep each step's checks small
				at := next() % len(family)
				family[at], versions[at] = child, child.db.Version()
			}
			wrote = false
		case 2: // MoveAt
			if len(m.want) == 0 {
				wrote = false
				break
			}
			i, to := next()*len(m.want)/256, point()
			if prev := m.db.MoveAt(i, to); prev != m.want[i].Loc {
				t.Fatalf("step %d: MoveAt(%d) returned %v, want %v", step, i, prev, m.want[i].Loc)
			}
			m.want[i].Loc = to
		case 3: // Move
			if len(m.want) == 0 {
				wrote = false
				break
			}
			i, to := next()*len(m.want)/256, point()
			if prev, err := m.db.Move(m.want[i].UserID, to); err != nil || prev != m.want[i].Loc {
				t.Fatalf("step %d: Move(%q) = %v, %v, want %v", step, m.want[i].UserID, prev, err, m.want[i].Loc)
			}
			m.want[i].Loc = to
		case 4: // Add a user no snapshot has seen, then one it holds
			id, at := "n"+strconv.Itoa(step), point()
			if err := m.db.Add(id, at); err != nil {
				t.Fatalf("step %d: Add(%q): %v", step, id, err)
			}
			m.want = append(m.want, Record{UserID: id, Loc: at})
			ids = append(ids, id)
			if err := m.db.Add(id, at); !errors.Is(err, ErrDuplicateUser) {
				t.Fatalf("step %d: second Add(%q) = %v, want ErrDuplicateUser", step, id, err)
			}
		}
		for i, f := range family[:len(versions)] {
			if changed := f.db.Version() != versions[i]; changed != (wrote && f == m) {
				t.Fatalf("step %d op %d: snapshot %d version %d -> %d (written: %v)", step, op, i, versions[i], f.db.Version(), f == m)
			}
		}
		for i, f := range family {
			checkCOW(t, step, i, f, ids)
		}
	}
}

// checkCOW holds one snapshot to its model.
func checkCOW(t *testing.T, step, i int, f *cowModel, ids []string) {
	t.Helper()
	if f.db.Len() != len(f.want) {
		t.Fatalf("step %d: snapshot %d has %d records, want %d", step, i, f.db.Len(), len(f.want))
	}
	index := make(map[string]int, len(f.want))
	for j, w := range f.want {
		if got := f.db.At(j); got != w {
			t.Fatalf("step %d: snapshot %d record %d = %+v, want %+v", step, i, j, got, w)
		}
		index[w.UserID] = j
	}
	for _, id := range ids {
		want, ok := index[id]
		if !ok {
			want = -1
		}
		if got := f.db.Index(id); got != want {
			t.Fatalf("step %d: snapshot %d Index(%q) = %d, want %d", step, i, id, got, want)
		}
	}
}

// TestCopyOnWriteModel: random interleavings of writes and derivations
// over flat and paged snapshots, each snapshot held to a deep-copy model
// after every step.
func TestCopyOnWriteModel(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3+rng.Intn(600))
		rng.Read(ops)
		runCOW(t, ops)
	}
}

// TestFlatParentNotWrittenThrough: the smallest case of the rule, on the
// storage form that wrote in place before it.
func TestFlatParentNotWrittenThrough(t *testing.T) {
	db := cowDB(t, 300)
	was := db.At(0)
	child := db.CloneWithMoves(nil)
	db.MoveAt(0, geo.Point{X: -1, Y: -1})
	if got := child.At(0); got != was {
		t.Fatalf("MoveAt on a flat parent changed its child: %+v, want %+v", got, was)
	}
}

// FuzzCopyOnWrite runs the model test's driver on fuzzed interleavings.
func FuzzCopyOnWrite(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{200, 200, 200, 0, 0, 3, 10, 1, 1, 2, 0, 5, 5, 2, 1, 7, 7})
	f.Add([]byte{128, 0, 0, 1, 0, 4, 0, 9, 9, 4, 1, 8, 8, 0, 2, 2, 30, 30, 3, 0, 255, 1, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runCOW(t, ops)
	})
}
