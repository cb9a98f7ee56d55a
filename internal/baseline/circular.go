package baseline

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/location"
)

// CircleAssignment is a cloaking policy that assigns each user a circular
// cloak whose center comes from a fixed set of candidate centers (public
// landmarks or base stations) — the cloak family of Theorem 1 and of the
// Fig. 6(b) example.
type CircleAssignment struct {
	db      *location.DB
	circles []geo.Circle
}

// NewCircleAssignment validates masking and wraps the per-user circles.
func NewCircleAssignment(db *location.DB, circles []geo.Circle) (*CircleAssignment, error) {
	if len(circles) != db.Len() {
		return nil, fmt.Errorf("baseline: %d circles for %d users", len(circles), db.Len())
	}
	for i, c := range circles {
		if !c.Contains(db.At(i).Loc) {
			return nil, fmt.Errorf("baseline: circle %v does not cover user %q at %v",
				c, db.At(i).UserID, db.At(i).Loc)
		}
	}
	return &CircleAssignment{db: db, circles: circles}, nil
}

// CircleAt returns the cloak of the i-th record.
func (ca *CircleAssignment) CircleAt(i int) geo.Circle { return ca.circles[i] }

// Cost returns the summed cloak area over all users (the circular analogue
// of the Section IV cost).
func (ca *CircleAssignment) Cost() float64 {
	var total float64
	for _, c := range ca.circles {
		total += c.Area()
	}
	return total
}

// CircleGroup is a cloaking group of the circular policy.
type CircleGroup struct {
	Circle  geo.Circle
	Members []int
}

// Groups returns the cloaking groups in a deterministic order.
func (ca *CircleAssignment) Groups() []CircleGroup {
	byCircle := make(map[geo.Circle][]int)
	for i, c := range ca.circles {
		byCircle[c] = append(byCircle[c], i)
	}
	groups := make([]CircleGroup, 0, len(byCircle))
	for c, members := range byCircle {
		sort.Ints(members)
		groups = append(groups, CircleGroup{Circle: c, Members: members})
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i].Circle, groups[j].Circle
		if a.Center != b.Center {
			if a.Center.X != b.Center.X {
				return a.Center.X < b.Center.X
			}
			return a.Center.Y < b.Center.Y
		}
		return a.Radius < b.Radius
	})
	return groups
}

// PolicyAwareCandidates returns the possible senders of a request with the
// observed circular cloak when the attacker knows the policy: the cloaking
// group of that circle.
func (ca *CircleAssignment) PolicyAwareCandidates(c geo.Circle) []string {
	var out []string
	for i, ci := range ca.circles {
		if ci == c {
			out = append(out, ca.db.At(i).UserID)
		}
	}
	return out
}

// PolicyUnawareCandidates returns every user covered by the circle, the
// candidate set available to an attacker who knows only the cloak family.
func (ca *CircleAssignment) PolicyUnawareCandidates(c geo.Circle) []string {
	var out []string
	for i := 0; i < ca.db.Len(); i++ {
		if c.Contains(ca.db.At(i).Loc) {
			out = append(out, ca.db.At(i).UserID)
		}
	}
	return out
}

// IsKReciprocal checks the k-reciprocity property of [17]: for every user
// x, at least k-1 of the other users inside x's cloak have x inside their
// own cloaks.
func (ca *CircleAssignment) IsKReciprocal(k int) bool {
	n := ca.db.Len()
	for x := 0; x < n; x++ {
		reciprocal := 0
		for y := 0; y < n; y++ {
			if y == x {
				continue
			}
			if ca.circles[x].Contains(ca.db.At(y).Loc) && ca.circles[y].Contains(ca.db.At(x).Loc) {
				reciprocal++
			}
		}
		if reciprocal < k-1 {
			return false
		}
	}
	return true
}

// MinPolicyAwareAnonymity returns the smallest policy-aware candidate set
// over all issued cloaks.
func (ca *CircleAssignment) MinPolicyAwareAnonymity() int {
	groups := ca.Groups()
	if len(groups) == 0 {
		return 0
	}
	minN := ca.db.Len() + 1
	for _, g := range groups {
		if len(g.Members) < minN {
			minN = len(g.Members)
		}
	}
	return minN
}

// NearestCenterCircles computes the Fig. 6(b) policy: each user's cloak is
// the circle centered at her nearest center, with the minimum radius that
// covers at least k users. The resulting cloaking is k-inside (and, in the
// Fig. 6(b) configuration, k-reciprocal) yet breaches policy-aware sender
// k-anonymity.
func NearestCenterCircles(db *location.DB, centers []geo.Point, k int) (*CircleAssignment, error) {
	if len(centers) == 0 {
		return nil, fmt.Errorf("baseline: no candidate centers")
	}
	if db.Len() < k {
		return nil, fmt.Errorf("%w: |D|=%d, k=%d", core.ErrInsufficientUsers, db.Len(), k)
	}
	circles := make([]geo.Circle, db.Len())
	for i := 0; i < db.Len(); i++ {
		loc := db.At(i).Loc
		best := centers[0]
		for _, c := range centers[1:] {
			if loc.DistSq(c) < loc.DistSq(best) {
				best = c
			}
		}
		circles[i] = geo.Circle{Center: best, Radius: kthNearestRadius(db, best, k)}
		// Masking: the circle covering the k nearest users might not cover
		// the requester herself when she is far from her nearest center;
		// enlarge it to keep the policy masking (Definition 4).
		if d := math.Sqrt(float64(best.DistSq(loc))); d > circles[i].Radius {
			circles[i].Radius = d
		}
	}
	return NewCircleAssignment(db, circles)
}

// kthNearestRadius returns the distance from center to its k-th nearest
// user, i.e. the minimum radius covering at least k users.
func kthNearestRadius(db *location.DB, center geo.Point, k int) float64 {
	ds := make([]int64, db.Len())
	for i := 0; i < db.Len(); i++ {
		ds[i] = center.DistSq(db.At(i).Loc)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return math.Sqrt(float64(ds[k-1]))
}

// MaxExactCircular bounds the exact solver's input size; the subset
// dynamic program below is Θ(3^n · n · |centers|).
const MaxExactCircular = 16

// OptimalCircular solves Optimal Policy-aware Bulk-anonymization with
// Circular cloaks exactly: it partitions the users into cloaking groups of
// size at least k, assigns each group the cheapest covering circle
// centered at a candidate center, and minimizes the summed per-user cloak
// area. Theorem 1 shows the problem NP-complete, and this solver is
// accordingly exponential; it rejects instances above MaxExactCircular
// users and exists to ground-truth the greedy heuristic and to exhibit the
// hardness gap in the ablation benchmarks.
func OptimalCircular(db *location.DB, centers []geo.Point, k int) (*CircleAssignment, error) {
	n := db.Len()
	if n > MaxExactCircular {
		return nil, fmt.Errorf("baseline: exact circular solver limited to %d users, got %d", MaxExactCircular, n)
	}
	if n < k {
		return nil, fmt.Errorf("%w: |D|=%d, k=%d", core.ErrInsufficientUsers, n, k)
	}
	if len(centers) == 0 {
		return nil, fmt.Errorf("baseline: no candidate centers")
	}
	// distSq[u][c]: squared distance of user u to center c.
	distSq := make([][]int64, n)
	for u := 0; u < n; u++ {
		distSq[u] = make([]int64, len(centers))
		for c, ctr := range centers {
			distSq[u][c] = db.At(u).Loc.DistSq(ctr)
		}
	}
	groupCost := func(mask uint32) (float64, geo.Circle) {
		best := math.Inf(1)
		var bestCircle geo.Circle
		for c, ctr := range centers {
			var worst int64
			for u := 0; u < n; u++ {
				if mask&(1<<u) != 0 && distSq[u][c] > worst {
					worst = distSq[u][c]
				}
			}
			r := math.Sqrt(float64(worst))
			cost := float64(bits.OnesCount32(mask)) * math.Pi * float64(worst)
			if cost < best {
				best = cost
				bestCircle = geo.Circle{Center: ctr, Radius: r}
			}
		}
		return best, bestCircle
	}
	full := uint32(1)<<n - 1
	f := make([]float64, full+1)
	choice := make([]uint32, full+1)
	for s := uint32(1); s <= full; s++ {
		f[s] = math.Inf(1)
		if bits.OnesCount32(s) < k {
			continue
		}
		low := s & (^s + 1) // lowest set bit must be in the chosen group
		rest := s &^ low
		for sub := rest; ; sub = (sub - 1) & rest {
			g := sub | low
			if bits.OnesCount32(g) >= k {
				c, _ := groupCost(g)
				if rem := s &^ g; rem == 0 {
					if c < f[s] {
						f[s], choice[s] = c, g
					}
				} else if !math.IsInf(f[rem], 1) && f[rem]+c < f[s] {
					f[s], choice[s] = f[rem]+c, g
				}
			}
			if sub == 0 {
				break
			}
		}
	}
	if math.IsInf(f[full], 1) {
		return nil, fmt.Errorf("baseline: no feasible circular partition (internal error)")
	}
	circles := make([]geo.Circle, n)
	for s := full; s != 0; {
		g := choice[s]
		_, circle := groupCost(g)
		for u := 0; u < n; u++ {
			if g&(1<<u) != 0 {
				circles[u] = circle
			}
		}
		s &^= g
	}
	return NewCircleAssignment(db, circles)
}

// GreedyCircular is the polynomial heuristic companion to OptimalCircular:
// while at least 2k users remain, it forms the cheapest (per the summed
// area) group of k users nearest to some candidate center; the final group
// absorbs all remaining users. The result is policy-aware k-anonymous but
// generally suboptimal.
func GreedyCircular(db *location.DB, centers []geo.Point, k int) (*CircleAssignment, error) {
	n := db.Len()
	if n < k {
		return nil, fmt.Errorf("%w: |D|=%d, k=%d", core.ErrInsufficientUsers, n, k)
	}
	if len(centers) == 0 {
		return nil, fmt.Errorf("baseline: no candidate centers")
	}
	circles := make([]geo.Circle, n)
	grouped := make([]bool, n)
	remaining := n
	for remaining >= 2*k {
		bestCost := math.Inf(1)
		var bestGroup []int
		var bestCircle geo.Circle
		for _, ctr := range centers {
			group := nearestTo(db, grouped, ctr, k)
			if len(group) < k {
				continue
			}
			var worst int64
			for _, u := range group {
				if d := ctr.DistSq(db.At(u).Loc); d > worst {
					worst = d
				}
			}
			cost := float64(k) * math.Pi * float64(worst)
			if cost < bestCost {
				bestCost = cost
				bestGroup = group
				bestCircle = geo.Circle{Center: ctr, Radius: math.Sqrt(float64(worst))}
			}
		}
		for _, u := range bestGroup {
			circles[u] = bestCircle
			grouped[u] = true
		}
		remaining -= len(bestGroup)
	}
	// Final group: everyone left (k <= remaining < 2k), cheapest center.
	var rest []int
	for u := 0; u < n; u++ {
		if !grouped[u] {
			rest = append(rest, u)
		}
	}
	if len(rest) > 0 {
		best := math.Inf(1)
		var bestCircle geo.Circle
		for _, ctr := range centers {
			var worst int64
			for _, u := range rest {
				if d := ctr.DistSq(db.At(u).Loc); d > worst {
					worst = d
				}
			}
			if a := math.Pi * float64(worst); a < best {
				best = a
				bestCircle = geo.Circle{Center: ctr, Radius: math.Sqrt(float64(worst))}
			}
		}
		for _, u := range rest {
			circles[u] = bestCircle
		}
	}
	return NewCircleAssignment(db, circles)
}

// nearestTo returns the (up to) size ungrouped users nearest to the center.
func nearestTo(db *location.DB, grouped []bool, center geo.Point, size int) []int {
	type cand struct {
		idx  int
		dist int64
	}
	var cands []cand
	for i := 0; i < db.Len(); i++ {
		if !grouped[i] {
			cands = append(cands, cand{i, center.DistSq(db.At(i).Loc)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].dist != cands[b].dist {
			return cands[a].dist < cands[b].dist
		}
		return cands[a].idx < cands[b].idx
	})
	if len(cands) > size {
		cands = cands[:size]
	}
	out := make([]int, len(cands))
	for i, c := range cands {
		out[i] = c.idx
	}
	return out
}
