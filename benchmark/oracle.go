package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"

	"policyanon/internal/attacker"
	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// oracle is the from-scratch reference the server's answers are held
// to: the optimal policy computed in this process over the same
// generated snapshot, and the POI store's own candidate functions.
type oracle struct {
	db     *location.DB
	policy *lbs.Assignment
	cost   int64
	store  *lbs.POIStore // nil for workloads that serve no requests
}

func newOracle(db *location.DB, pois []lbs.POI) (*oracle, error) {
	anon, err := core.NewAnonymizer(db, bounds(), core.AnonymizerOptions{K: anonK})
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	policy, err := anon.Policy()
	if err != nil {
		return nil, fmt.Errorf("oracle policy: %w", err)
	}
	cost, err := anon.OptimalCost()
	if err != nil {
		return nil, fmt.Errorf("oracle cost: %w", err)
	}
	if breaches, min := attacker.Audit(policy, anonK, attacker.PolicyAware); len(breaches) > 0 || min < anonK {
		return nil, fmt.Errorf("oracle policy is not policy-aware %d-anonymous: min candidate set %d, %d breaches", anonK, min, len(breaches))
	}
	o := &oracle{db: db, policy: policy, cost: cost}
	if pois != nil {
		if o.store, err = lbs.NewPOIStore(pois, bounds(), 0); err != nil {
			return nil, fmt.Errorf("oracle POI store: %w", err)
		}
	}
	return o, nil
}

// Wire forms of the server's answers, declared here so the black-box
// half depends on the HTTP contract and not on internal/server's types.
type rectJSON struct {
	MinX int32 `json:"minX"`
	MinY int32 `json:"minY"`
	MaxX int32 `json:"maxX"`
	MaxY int32 `json:"maxY"`
}

func (r rectJSON) rect() geo.Rect {
	return geo.Rect{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

type poiJSON struct {
	ID       string `json:"id"`
	X        int32  `json:"x"`
	Y        int32  `json:"y"`
	Category string `json:"category"`
}

type answerJSON struct {
	Cloak      *rectJSON `json:"cloak"`
	Candidates []poiJSON `json:"candidates"`
	Error      string    `json:"error"`
}

type installJSON struct {
	Users      int   `json:"users"`
	PolicyCost int64 `json:"policyCost"`
}

// sameCandidates reports whether the served candidates are exactly the
// reference ones, in order.
func sameCandidates(got []poiJSON, want []lbs.POI) bool {
	if len(got) != len(want) {
		return false
	}
	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.X != w.Loc.X || g.Y != w.Loc.Y || g.Category != w.Category {
			return false
		}
	}
	return true
}

// checkCloak holds one answer's cloak to the oracle policy: it must be
// the oracle's cloak for that user and contain the stated location.
func (o *oracle) checkCloak(idx int, a *answerJSON) error {
	if a.Error != "" {
		return fmt.Errorf("user %d: server error %q", idx, a.Error)
	}
	if a.Cloak == nil {
		return fmt.Errorf("user %d: answer has no cloak", idx)
	}
	got, want := a.Cloak.rect(), o.policy.CloakAt(idx)
	if got != want {
		return fmt.Errorf("user %d: cloak %v, oracle %v", idx, got, want)
	}
	if loc := o.db.At(idx).Loc; !got.ContainsClosed(loc) {
		return fmt.Errorf("user %d: cloak %v does not contain stated location %v", idx, got, loc)
	}
	return nil
}

// checkNN verifies a nearest-neighbour answer — a /v1/request body or
// one item of a batch — in full.
func (o *oracle) checkNN(idx int, category string, answer []byte) error {
	var a answerJSON
	if err := json.Unmarshal(answer, &a); err != nil {
		return fmt.Errorf("user %d: decode: %w", idx, err)
	}
	if err := o.checkCloak(idx, &a); err != nil {
		return err
	}
	if !sameCandidates(a.Candidates, o.store.CandidateNearest(a.Cloak.rect(), category)) {
		return fmt.Errorf("user %d: candidates differ from POIStore.CandidateNearest", idx)
	}
	return nil
}

// stablePart is a batch item from its cloak on: what does not change
// between two requests by one user under one policy. A batch item's
// request ids come first, a /v1/request body's last, so a body never
// equals a stable part and is always verified by decoding.
func stablePart(item []byte) []byte {
	if i := bytes.Index(item, []byte(`"cloak":`)); i >= 0 {
		return item[i:]
	}
	return item
}

// checkRangeSound verifies what is cheap to verify on every range item:
// each served POI is of the category and within the radius of the cloak,
// and the list is in id order. Completeness is checked by checkRangeExact
// on a sample.
func checkRangeSound(a *answerJSON, category string, radius float64) error {
	cloak := a.Cloak.rect()
	r2 := radius * radius
	for i, p := range a.Candidates {
		if p.Category != category {
			return fmt.Errorf("candidate %s has category %q, want %q", p.ID, p.Category, category)
		}
		if float64(cloak.MinDistSqToPoint(geo.Point{X: p.X, Y: p.Y})) > r2 {
			return fmt.Errorf("candidate %s lies beyond %v m of cloak %v", p.ID, radius, cloak)
		}
		if i > 0 && a.Candidates[i-1].ID >= p.ID {
			return fmt.Errorf("candidates not in id order at %s", p.ID)
		}
	}
	return nil
}

func (o *oracle) checkRangeExact(a *answerJSON, category string, radius float64) error {
	if !sameCandidates(a.Candidates, o.store.CandidateInRange(a.Cloak.rect(), radius, category)) {
		return fmt.Errorf("range answer differs from POIStore.CandidateInRange on cloak %v radius %v", a.Cloak.rect(), radius)
	}
	return nil
}

// failures collects the first few reasons operations failed, for the
// result file; counting is done by the phases.
type failures struct {
	mu    sync.Mutex
	first []string
}

func (f *failures) add(err error) {
	f.mu.Lock()
	if len(f.first) < 8 {
		f.first = append(f.first, err.Error())
	}
	f.mu.Unlock()
}

func (f *failures) list() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.first...)
}
