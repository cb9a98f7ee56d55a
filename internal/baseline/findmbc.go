package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/location"
)

// MBCAssignment is a per-user minimum-bounding-circle cloaking, the output
// of the FindMBC algorithm of Xu–Cai [27]. Circle centers are free (not
// drawn from a fixed set), so cloaks are geo.FCircle values.
type MBCAssignment struct {
	db      *location.DB
	circles []geo.FCircle
}

// FindMBC computes, for every user, the minimum bounding circle of the
// user and her k-1 nearest neighbours — the tightest circular k-inside
// cloak. Like all tightest-cloak policies it resists policy-unaware
// attackers (every circle covers at least k users) but collapses against
// a policy-aware one: distinct users almost always get distinct circles,
// so the cloaking group of an observed circle is nearly a singleton. The
// paper notes (Section VII) that by Theorem 1 extending FindMBC to
// optimal policy-aware anonymization is likely hard.
func FindMBC(db *location.DB, bounds geo.Rect, k int) (*MBCAssignment, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k must be >= 1, got %d", k)
	}
	n := db.Len()
	if n < k {
		return nil, fmt.Errorf("%w: |D|=%d, k=%d", core.ErrInsufficientUsers, n, k)
	}
	grid, err := location.NewGrid(db, bounds, 0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1)) // Welzl shuffle only; result is unique
	circles := make([]geo.FCircle, n)
	for i := 0; i < n; i++ {
		group := kNearest(db, grid, bounds, i, k)
		pts := make([]geo.Point, len(group))
		for j, g := range group {
			pts[j] = db.At(g).Loc
		}
		circles[i] = geo.MinEnclosingCircle(pts, rng)
	}
	return &MBCAssignment{db: db, circles: circles}, nil
}

// kNearest returns user i and its k-1 nearest users (by squared Euclidean
// distance, ties by index), using an expanding grid search. The search
// stops when the k-th nearest candidate provably cannot be beaten by any
// user outside the scanned square (its distance fits within the square's
// inradius) or when the square covers the whole map.
func kNearest(db *location.DB, grid *location.Grid, bounds geo.Rect, i, k int) []int {
	from := db.At(i).Loc
	for side := int32(64); ; side *= 2 {
		r := geo.NewRect(
			maxI32(from.X-side, bounds.MinX), maxI32(from.Y-side, bounds.MinY),
			minI32(from.X+side, bounds.MaxX), minI32(from.Y+side, bounds.MaxY),
		)
		coversAll := r == bounds
		cand := grid.UsersInClosed(r)
		if len(cand) >= k {
			type dc struct {
				idx int
				d   int64
			}
			ds := make([]dc, 0, len(cand))
			for _, c := range cand {
				ds = append(ds, dc{int(c), from.DistSq(db.At(int(c)).Loc)})
			}
			sort.Slice(ds, func(a, b int) bool {
				if ds[a].d != ds[b].d {
					return ds[a].d < ds[b].d
				}
				return ds[a].idx < ds[b].idx
			})
			if coversAll || ds[k-1].d <= int64(side)*int64(side) {
				out := make([]int, k)
				for j := 0; j < k; j++ {
					out[j] = ds[j].idx
				}
				return out
			}
		}
		if coversAll {
			// Callers guarantee db.Len() >= k, so this is unreachable;
			// guard against infinite loops regardless.
			panic("baseline: kNearest exhausted the map without k users")
		}
	}
}

// CircleAt returns user i's cloak.
func (m *MBCAssignment) CircleAt(i int) geo.FCircle { return m.circles[i] }

// Cost returns the summed cloak areas.
func (m *MBCAssignment) Cost() float64 {
	total := 0.0
	for _, c := range m.circles {
		total += c.Area()
	}
	return total
}

// PolicyUnawareAnonymity returns the smallest number of users covered by
// any emitted circle (>= k by construction).
func (m *MBCAssignment) PolicyUnawareAnonymity() int {
	minN := m.db.Len() + 1
	for _, c := range m.circles {
		n := 0
		for i := 0; i < m.db.Len(); i++ {
			if c.ContainsPoint(m.db.At(i).Loc) {
				n++
			}
		}
		if n < minN {
			minN = n
		}
	}
	if m.db.Len() == 0 {
		return 0
	}
	return minN
}

// PolicyAwareAnonymity returns the smallest cloaking-group size: the
// number of users assigned an identical circle. For FindMBC this is
// typically 1, which is the policy-aware breach.
func (m *MBCAssignment) PolicyAwareAnonymity() int {
	groups := make(map[geo.FCircle]int)
	for _, c := range m.circles {
		groups[c]++
	}
	minN := m.db.Len() + 1
	for _, n := range groups {
		if n < minN {
			minN = n
		}
	}
	if m.db.Len() == 0 {
		return 0
	}
	return minN
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}
