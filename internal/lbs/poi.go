package lbs

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"

	"policyanon/internal/geo"
)

// POI is a point of interest served by the LBS provider.
type POI struct {
	ID       string    `json:"id"`
	Loc      geo.Point `json:"loc"`
	Category string    `json:"category"`
}

// POIStore is the LBS provider's spatial index: a uniform grid over the
// map supporting exact nearest-neighbour, range queries, and the cloaked
// nearest-neighbour candidate evaluation used to answer anonymized
// requests. Every candidate generator walks only the grid cells its
// window touches (inWindow), so a query costs O(cells + candidates), not
// O(catalogue).
//
// A POIStore is safe for any number of concurrent readers. Add and Remove
// need external exclusion against readers and each other (the server never
// mutates an installed store: POST /v1/pois replaces it wholesale).
type POIStore struct {
	bounds   geo.Rect
	cellSide int32
	cols     int32
	rows     int32
	cells    [][]int
	pois     []POI
	perCat   map[string]int // category -> number of POIs
}

// NewPOIStore indexes the points of interest. cellSide 0 picks a default
// targeting a few POIs per cell.
func NewPOIStore(pois []POI, bounds geo.Rect, cellSide int32) (*POIStore, error) {
	if bounds.Empty() {
		return nil, fmt.Errorf("lbs: empty POI store bounds")
	}
	if cellSide <= 0 {
		// Aim for ~2 POIs per cell on average.
		cells := len(pois)/2 + 1
		side := math.Sqrt(float64(bounds.Area()) / float64(cells))
		cellSide = int32(side)
		if cellSide < 1 {
			cellSide = 1
		}
	}
	s := &POIStore{
		bounds:   bounds,
		cellSide: cellSide,
		cols:     int32((bounds.Width() + int64(cellSide) - 1) / int64(cellSide)),
		rows:     int32((bounds.Height() + int64(cellSide) - 1) / int64(cellSide)),
		pois:     append([]POI(nil), pois...),
		perCat:   make(map[string]int),
	}
	s.cells = make([][]int, int(s.cols)*int(s.rows))
	for i, p := range s.pois {
		if !bounds.Contains(p.Loc) {
			return nil, fmt.Errorf("lbs: POI %q at %v outside bounds %v", p.ID, p.Loc, bounds)
		}
		s.cells[s.cellOf(p.Loc)] = append(s.cells[s.cellOf(p.Loc)], i)
		s.perCat[p.Category]++
	}
	return s, nil
}

// Len returns the number of indexed POIs.
func (s *POIStore) Len() int { return len(s.pois) }

// Add indexes a new point of interest. Section VII notes that points of
// interest appear and disappear over time; after mutating the catalogue
// the CSP should flush its result cache (CSP.FlushCache) so stale answers
// are not served past the next epoch.
func (s *POIStore) Add(p POI) error {
	if !s.bounds.Contains(p.Loc) {
		return fmt.Errorf("lbs: POI %q at %v outside bounds %v", p.ID, p.Loc, s.bounds)
	}
	for _, q := range s.pois {
		if q.ID == p.ID {
			return fmt.Errorf("lbs: duplicate POI id %q", p.ID)
		}
	}
	i := len(s.pois)
	s.pois = append(s.pois, p)
	s.cells[s.cellOf(p.Loc)] = append(s.cells[s.cellOf(p.Loc)], i)
	s.perCat[p.Category]++
	return nil
}

// Remove deletes a point of interest by id. It reports whether the id was
// present. Removal rebuilds the affected index entries; the operation is
// O(n) and intended for the paper's "infrequent intervals".
func (s *POIStore) Remove(id string) bool {
	idx := -1
	for i, p := range s.pois {
		if p.ID == id {
			idx = i
			break
		}
	}
	if idx < 0 {
		return false
	}
	s.perCat[s.pois[idx].Category]--
	s.pois = append(s.pois[:idx], s.pois[idx+1:]...)
	// Rebuild the positional index: simplest correct maintenance given
	// indices shifted.
	for c := range s.cells {
		s.cells[c] = s.cells[c][:0]
	}
	for i, p := range s.pois {
		s.cells[s.cellOf(p.Loc)] = append(s.cells[s.cellOf(p.Loc)], i)
	}
	return true
}

func (s *POIStore) cellOf(p geo.Point) int {
	cx := (p.X - s.bounds.MinX) / s.cellSide
	cy := (p.Y - s.bounds.MinY) / s.cellSide
	return int(cy)*int(s.cols) + int(cx)
}

// Nearest returns the POI closest to p (any category), using an expanding
// ring search over the grid. ok is false for an empty store.
func (s *POIStore) Nearest(p geo.Point) (poi POI, ok bool) {
	return s.NearestCategory(p, "")
}

// NearestCategory returns the closest POI of the given category; an empty
// category matches everything.
func (s *POIStore) NearestCategory(p geo.Point, category string) (POI, bool) {
	if len(s.pois) == 0 {
		return POI{}, false
	}
	cx := (p.X - s.bounds.MinX) / s.cellSide
	cy := (p.Y - s.bounds.MinY) / s.cellSide
	bestD := int64(math.MaxInt64)
	bestI := -1
	maxRing := int32(s.cols)
	if s.rows > maxRing {
		maxRing = s.rows
	}
	for ring := int32(0); ring <= maxRing; ring++ {
		// Once a candidate is known, stop when the ring's closest possible
		// point is farther than the candidate.
		if bestI >= 0 {
			minPossible := int64(ring-1) * int64(s.cellSide)
			if minPossible > 0 && minPossible*minPossible > bestD {
				break
			}
		}
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if maxAbs(dx, dy) != ring {
					continue // perimeter cells only
				}
				x, y := cx+dx, cy+dy
				if x < 0 || y < 0 || x >= s.cols || y >= s.rows {
					continue
				}
				for _, i := range s.cells[int(y)*int(s.cols)+int(x)] {
					if category != "" && s.pois[i].Category != category {
						continue
					}
					if d := p.DistSq(s.pois[i].Loc); d < bestD {
						bestD, bestI = d, i
					}
				}
			}
		}
	}
	if bestI < 0 {
		return POI{}, false
	}
	return s.pois[bestI], true
}

// maxReach is the largest window inflation inWindow is ever asked for: it
// exceeds any difference of two int32 coordinates, so a window inflated by
// it covers every store, and int64 arithmetic on it cannot overflow.
const maxReach = int64(1) << 33

// reachOf converts a query radius into a window inflation: ceil(|radius|),
// saturating at maxReach. NaN saturates too; the callers' distance
// predicates reject every POI for a NaN radius, as the linear scans did.
func reachOf(radius float64) int64 {
	if r := math.Ceil(math.Abs(radius)); r < float64(maxReach) {
		return int64(r)
	}
	return maxReach
}

// reachOfSq is reachOf for a squared integer distance: the smallest reach
// whose square is at least dSq (below maxReach for every int64).
func reachOfSq(dSq int64) int64 {
	r := int64(math.Sqrt(float64(dSq)))
	for r*r < dSq {
		r++
	}
	return r
}

// inWindow iterates the catalogue indexes of the POIs of a category (empty
// matches all) that are indexed in a grid cell intersecting the closed
// rectangle r inflated by reach on every side. The window is clamped to
// the store's bounds in int64 before any conversion to a cell index, so
// every reach in [0, maxReach] and every rectangle — inside the map,
// straddling it or wholly outside — is safe. The walk visits a superset
// of the POIs inside the window (whole cells); callers apply their own
// exact distance predicate.
func (s *POIStore) inWindow(r geo.Rect, reach int64, category string) iter.Seq[int] {
	return func(yield func(int) bool) {
		loX := max(int64(r.MinX)-reach, int64(s.bounds.MinX))
		hiX := min(int64(r.MaxX)+reach, int64(s.bounds.MaxX)-1)
		loY := max(int64(r.MinY)-reach, int64(s.bounds.MinY))
		hiY := min(int64(r.MaxY)+reach, int64(s.bounds.MaxY)-1)
		if loX > hiX || loY > hiY {
			return
		}
		side, cols := int64(s.cellSide), int(s.cols)
		x0, x1 := int((loX-int64(s.bounds.MinX))/side), int((hiX-int64(s.bounds.MinX))/side)
		y0, y1 := int((loY-int64(s.bounds.MinY))/side), int((hiY-int64(s.bounds.MinY))/side)
		for y := y0; y <= y1; y++ {
			for _, cell := range s.cells[y*cols+x0 : y*cols+x1+1] {
				for _, i := range cell {
					if category != "" && s.pois[i].Category != category {
						continue
					}
					if !yield(i) {
						return
					}
				}
			}
		}
	}
}

// answer materializes a candidate set from catalogue indexes, sorted by ID
// (catalogue order among equal IDs, so the output is deterministic even
// for a catalogue that repeats an ID).
func (s *POIStore) answer(idxs []int) []POI {
	if len(idxs) == 0 {
		return nil
	}
	slices.SortFunc(idxs, func(a, b int) int {
		if c := strings.Compare(s.pois[a].ID, s.pois[b].ID); c != 0 {
			return c
		}
		return a - b
	})
	out := make([]POI, len(idxs))
	for j, i := range idxs {
		out[j] = s.pois[i]
	}
	return out
}

// InRange returns the POIs within radius of center, the paper's running
// range-query example ("find gas stations within 2 miles").
func (s *POIStore) InRange(center geo.Point, radius float64, category string) []POI {
	r2 := radius * radius
	var idxs []int
	point := geo.Rect{MinX: center.X, MinY: center.Y, MaxX: center.X, MaxY: center.Y}
	for i := range s.inWindow(point, reachOf(radius), category) {
		if float64(center.DistSq(s.pois[i].Loc)) <= r2 {
			idxs = append(idxs, i)
		}
	}
	return s.answer(idxs)
}

// CandidateNearest answers an anonymized nearest-neighbour request: it
// returns a set of POIs guaranteed to contain the true nearest neighbour
// of every possible sender location inside the cloak. The client filters
// the candidates against the precise location.
//
// Construction: let r* = min over POIs of the maximum distance from the
// POI to the cloak; any location in the cloak has its nearest neighbour
// within r*, so every POI whose minimum distance to the cloak exceeds r*
// can be pruned. The candidate set size (and hence the processing and
// filtering work) grows with the cloak area, which is why policy cost
// (Section IV) uses cloak area as its utility measure.
func (s *POIStore) CandidateNearest(cloak geo.Rect, category string) []POI {
	return s.CandidateKNearest(cloak, 1, category)
}

// CandidateKNearest answers an anonymized top-N query: it returns a set
// guaranteed to contain, for every possible sender location in the cloak,
// that location's N nearest POIs. Construction: let rN be the N-th
// smallest over POIs of the maximum distance from the POI to the cloak —
// any cloak location has N POIs within rN — and keep every POI whose
// minimum distance to the cloak is at most rN.
//
// rN is found without walking the catalogue: grow a window around the
// cloak until it holds N POIs of the category, which bounds rN from above
// by their N-th max-distance U; a POI with max-distance <= U has
// min-distance <= U, so the exact rN is the N-th smallest max-distance
// inside the cloak inflated by ceil(sqrt(U)), and the candidates lie
// inside the cloak inflated by ceil(sqrt(rN)). A category too sparse to
// fill a small window degrades to a walk of the whole grid.
func (s *POIStore) CandidateKNearest(cloak geo.Rect, n int, category string) []POI {
	total := len(s.pois)
	if category != "" {
		total = s.perCat[category]
	}
	if total == 0 {
		return nil
	}
	n = min(max(n, 1), total)
	var dists []int64
	// nth returns the n-th smallest max-distance to the cloak among the
	// category's POIs in the window, or -1 when the window holds fewer.
	nth := func(reach int64) int64 {
		dists = dists[:0]
		for i := range s.inWindow(cloak, reach, category) {
			dists = append(dists, cloak.MaxDistSqToPoint(s.pois[i].Loc))
		}
		if len(dists) < n {
			return -1
		}
		slices.Sort(dists)
		return dists[n-1]
	}
	// total >= n POIs exist inside the bounds, so the growing window
	// (0, 1, 3, 7, ... cells; maxReach covers any store) ends the loop.
	reach := int64(0)
	upper := nth(reach)
	for upper < 0 {
		reach = min(2*reach+int64(s.cellSide), maxReach)
		upper = nth(reach)
	}
	rN := nth(reachOfSq(upper))
	var idxs []int
	for i := range s.inWindow(cloak, reachOfSq(rN), category) {
		if cloak.MinDistSqToPoint(s.pois[i].Loc) <= rN {
			idxs = append(idxs, i)
		}
	}
	return s.answer(idxs)
}

// FilterKNearest refines a candidate set to the exact N nearest POIs of
// the precise location (fewer when the set is smaller).
func FilterKNearest(cands []POI, loc geo.Point, n int) []POI {
	out := append([]POI(nil), cands...)
	sort.Slice(out, func(i, j int) bool {
		di, dj := loc.DistSq(out[i].Loc), loc.DistSq(out[j].Loc)
		if di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// CandidateInRange answers an anonymized range query ("find gas stations
// within 2 miles"): it returns every POI within radius of SOME location
// in the cloak, i.e. the union of the exact answers over all possible
// senders. The client filters against the precise location. Smaller
// cloaks yield smaller candidate sets, which is the paper's utility
// argument for minimizing cloak area.
func (s *POIStore) CandidateInRange(cloak geo.Rect, radius float64, category string) []POI {
	r2 := radius * radius
	var idxs []int
	for i := range s.inWindow(cloak, reachOf(radius), category) {
		if float64(cloak.MinDistSqToPoint(s.pois[i].Loc)) <= r2 {
			idxs = append(idxs, i)
		}
	}
	return s.answer(idxs)
}

// FilterInRange is the client-side refinement of a range-query candidate
// set: the POIs actually within radius of the precise location.
func FilterInRange(cands []POI, loc geo.Point, radius float64) []POI {
	r2 := radius * radius
	var out []POI
	for _, p := range cands {
		if float64(loc.DistSq(p.Loc)) <= r2 {
			out = append(out, p)
		}
	}
	return out
}

// FilterNearest is the client-side refinement step: the exact nearest
// candidate to the user's precise location. ok is false for an empty
// candidate set.
func FilterNearest(cands []POI, loc geo.Point) (POI, bool) {
	best := -1
	bestD := int64(math.MaxInt64)
	for i, p := range cands {
		if d := loc.DistSq(p.Loc); d < bestD {
			bestD, best = d, i
		}
	}
	if best < 0 {
		return POI{}, false
	}
	return cands[best], true
}

func maxAbs(a, b int32) int32 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}
