package attacker

import (
	"runtime"
	"slices"
	"sync"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// Survey is everything both attacker classes can count about one policy,
// taken in O(|D|) over the assignment: the cloaking groups (the
// policy-aware candidate sets themselves), a spatial grid of the snapshot
// and, counted on first use, the policy-unaware candidate count of every
// issued cloak. It is the one source of candidate counts for Audit,
// GroupSizes, verify.Policy, verify.Delta and the audit package;
// Candidates stays the literal Definition 5 scan the tests hold it
// against.
//
// The groups come from lbs.Assignment.GroupsOn: the cloak table sorted by
// rectangle, which canonicalises it (two ids holding one rectangle get one
// canonical id), then a counting sort of the records by canonical id. So
// grouping by id is grouping by rectangle whatever the table holds, and no
// record's rectangle is hashed.
//
// A Survey is derived from nothing but its own assignment and is
// memoized on it (SurveyOf), so the publish gate, the swap-time audit and
// the sampled request audit of one published version share one survey and
// one grid. It is safe for concurrent use.
//
// It takes every core: the grid, which depends only on the snapshot, is
// built beside the groups, and the groups and the policy-unaware counts
// are split by range. The result is the same on any number.
type Survey struct {
	a       *lbs.Assignment
	groups  []lbs.Group
	index   map[geo.Rect]int32 // cloak -> position in groups
	grid    *location.Grid     // nil when gridErr is set or D is empty
	gridErr error
	workers int // goroutines the groups and unaware counts are split across

	unawareOnce sync.Once
	unaware     []int // per group, in groups order
}

// SurveyOf returns the assignment's survey, building it on first use.
func SurveyOf(a *lbs.Assignment) *Survey {
	return a.Memo(func() any { return newSurvey(a, runtime.GOMAXPROCS(0)) }).(*Survey)
}

// newSurvey takes the survey of a, splitting the groups and the unaware
// counts across up to workers goroutines and building the grid beside
// them.
func newSurvey(a *lbs.Assignment, workers int) *Survey {
	s := &Survey{a: a, workers: workers}
	var wg sync.WaitGroup
	if a.Len() > 0 {
		// Tight bounds suffice: users outside a cloak's overlap with the
		// population bounds cannot be candidates anyway.
		db := a.DB()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.grid, s.gridErr = location.NewGrid(db, db.Bounds(), 0)
		}()
	}
	s.groups = a.GroupsOn(workers)
	wg.Wait()
	s.index = make(map[geo.Rect]int32, len(s.groups))
	for g := range s.groups {
		s.index[s.groups[g].Cloak] = int32(g)
	}
	return s
}

// Groups returns the cloaking groups in lbs.Assignment.Groups order. The
// slice is shared: callers must not modify it.
func (s *Survey) Groups() []lbs.Group { return s.groups }

// countUnaware counts every issued cloak once, contiguous group ranges on
// separate goroutines.
func (s *Survey) countUnaware() {
	s.unawareOnce.Do(func() {
		if len(s.groups) == 0 {
			return
		}
		n := len(s.groups)
		s.unaware = make([]int, n)
		workers := max(1, min(s.workers, n))
		count := func(w int) {
			for g := w * n / workers; g < (w+1)*n/workers; g++ {
				s.unaware[g] = s.scanUnaware(s.groups[g].Cloak)
			}
		}
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for w := 1; w < workers; w++ {
			go func() {
				defer wg.Done()
				count(w)
			}()
		}
		count(0)
		wg.Wait()
	})
}

// scanUnaware counts the users inside a cloak through the grid, or — when
// the grid could not be built — by the Definition 5 scan.
func (s *Survey) scanUnaware(cloak geo.Rect) int {
	if s.grid != nil {
		return s.grid.CountInClosed(cloak)
	}
	return len(Candidates(s.a, cloak, PolicyUnaware))
}

// IndexErr reports why the policy-unaware counts are not grid-backed: nil
// in the normal case, the grid build error when every count fell back to
// a full scan of D (O(|D| x groups) overall — location.NewGrid refuses
// only bounds it cannot represent, i.e. a coordinate at the int32 limit).
// Callers with a metrics registry or a span surface it; the survey itself
// stays correct either way.
func (s *Survey) IndexErr() error { return s.gridErr }

// Count returns the candidate-set size of a cloak under the attacker
// class: O(1) for every cloak the policy issues, one grid query for any
// other rectangle under PolicyUnaware (no user is assigned such a cloak,
// so its PolicyAware count is 0).
func (s *Survey) Count(cloak geo.Rect, aw Awareness) int {
	g, issued := s.index[cloak]
	if aw == PolicyAware {
		if !issued {
			return 0
		}
		return len(s.groups[g].Members)
	}
	s.countUnaware()
	if !issued {
		return s.scanUnaware(cloak)
	}
	return s.unaware[g]
}

// candidates lists a group's candidate user ids in the order Candidates
// returns them (record order); only breach reports need the ids.
func (s *Survey) candidates(g int, aw Awareness) []string {
	db := s.a.DB()
	var out []string
	if aw == PolicyAware {
		for _, i := range s.groups[g].Members {
			out = append(out, db.At(i).UserID)
		}
		return out
	}
	if s.grid == nil {
		return Candidates(s.a, s.groups[g].Cloak, aw)
	}
	inside := s.grid.UsersInClosed(s.groups[g].Cloak) // in cell order
	slices.Sort(inside)
	for _, i := range inside {
		out = append(out, db.At(int(i)).UserID)
	}
	return out
}

// Audit is the package-level Audit over this survey.
func (s *Survey) Audit(k int, aw Awareness) (breaches []Breach, minAnonymity int) {
	if s.a.Len() == 0 {
		return nil, 0
	}
	minAnonymity = s.a.Len() + 1
	for g, n := range s.GroupSizes(aw) {
		if n < minAnonymity {
			minAnonymity = n
		}
		if n < k {
			breaches = append(breaches, Breach{Cloak: s.groups[g].Cloak, Candidates: s.candidates(g, aw)})
		}
	}
	return breaches, minAnonymity
}

// GroupSizes is the package-level GroupSizes over this survey. The
// returned slice is the caller's.
func (s *Survey) GroupSizes(aw Awareness) []int {
	sizes := make([]int, len(s.groups))
	if aw == PolicyUnaware {
		s.countUnaware()
		copy(sizes, s.unaware)
		return sizes
	}
	for g := range s.groups {
		sizes[g] = len(s.groups[g].Members)
	}
	return sizes
}
