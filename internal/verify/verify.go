// Package verify is the defence-in-depth validation harness run before a
// policy is trusted: it re-derives, from first principles, every property
// the system promises about an assignment — the masking property
// (Definition 4), sender k-anonymity against both attacker classes
// (Definition 6, including the explicit construction of the k Possible
// Reverse Engineerings whose existence the definition requires), and the
// structural sanity of the cloaking groups.
//
// The anonymization pipeline already guarantees these properties by
// construction; this package exists so that operational surfaces
// (checkpoint restore, cluster assembly, simulation) can verify rather
// than trust, and so the Definition 6 witness lives in library code
// instead of only in tests.
package verify

import (
	"fmt"

	"policyanon/internal/attacker"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// Report is the outcome of a full policy verification.
type Report struct {
	K     int
	Users int
	// Masking is true when every cloak contains its user's location.
	Masking bool
	// PolicyAware / PolicyUnaware report sender k-anonymity against each
	// attacker class.
	PolicyAware   bool
	PolicyUnaware bool
	// MinAware / MinUnaware are the smallest candidate sets observed.
	MinAware   int
	MinUnaware int
	// Witness holds, when PolicyAware is true, the k PREs of
	// Definition 6: Witness[i] maps every issued cloak to the i-th
	// distinct possible sender.
	Witness []map[geo.Rect]string
	// DeltaScoped marks a report produced by Delta: masking was re-checked
	// only for the records the delta touched and no Definition 6 witness
	// was built. The anonymity checks and Min fields cover every issued
	// cloak, as in a full report.
	DeltaScoped bool
	// Problems lists human-readable violations (empty when OK()).
	Problems []string
}

// OK reports whether the policy passed every check.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// String summarizes the report.
func (r *Report) String() string {
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("FAILED (%d problems)", len(r.Problems))
	}
	return fmt.Sprintf("verify: %s — %d users, k=%d, masking=%v, aware=%v(min %d), unaware=%v(min %d)",
		status, r.Users, r.K, r.Masking, r.PolicyAware, r.MinAware, r.PolicyUnaware, r.MinUnaware)
}

// Policy runs the full verification of an assignment at anonymity level k.
// Every count comes from the assignment's own attacker.Survey — one
// O(|D|) pass for the cloaking groups, one grid for the policy-unaware
// counts — and the Definition 6 witness is read off the groups' members,
// so the whole check is O(|D| + k·groups), not O(|D|·groups).
func Policy(a *lbs.Assignment, k int) *Report {
	r := &Report{K: k, Users: a.Len(), Masking: true}
	if k < 1 {
		r.Problems = append(r.Problems, fmt.Sprintf("k=%d is not a valid anonymity level", k))
		return r
	}
	db := a.DB()
	for base, run := range a.CloakRuns() {
		for j, cloak := range run {
			r.checkMask(cloak, db.At(base+j))
		}
	}
	s := attacker.SurveyOf(a)
	r.checkAnonymity(s)
	// Definition 6 witness: k PREs with pairwise distinct senders per
	// observed cloak, each mapping back to the observed cloak under the
	// policy itself.
	if r.PolicyAware && a.Len() > 0 {
		witness, err := buildWitness(a, s.Groups(), k)
		if err != nil {
			r.Problems = append(r.Problems, "witness construction failed: "+err.Error())
		} else {
			r.Witness = witness
		}
	}
	return r
}

// Delta verifies a delta-derived assignment without Policy's two
// per-record passes that a delta cannot have invalidated: masking is
// re-checked only for the records the delta moved or re-cloaked (every
// other record and cloak is unchanged since an ancestor was verified in
// full), and no Definition 6 witness is built. Sender k-anonymity is
// checked against both attacker classes for every issued cloak, from the
// assignment's own survey, exactly as Policy does — so the cost is still
// O(|D|) (the survey pass and its grid), about half of Policy's, and not
// O(touched). Callers enforce a full-verify cadence
// (motion.Config.VerifyEvery) so the fully verified ancestor exists. For
// assignments without a delta it falls back to Policy.
func Delta(a *lbs.Assignment, k int) *Report {
	d := a.Delta()
	if d == nil {
		return Policy(a, k)
	}
	r := &Report{K: k, Users: a.Len(), Masking: true, DeltaScoped: true}
	if k < 1 {
		r.Problems = append(r.Problems, fmt.Sprintf("k=%d is not a valid anonymity level", k))
		return r
	}
	db := a.DB()
	for _, c := range d.Cloaks {
		r.checkMask(a.CloakAt(c.Index), db.At(c.Index))
	}
	for _, mv := range d.Moves {
		r.checkMask(a.CloakAt(mv.Index), db.At(mv.Index))
	}
	r.checkAnonymity(attacker.SurveyOf(a))
	return r
}

// checkMask records a masking violation (Definition 4) of one record.
func (r *Report) checkMask(cloak geo.Rect, rec location.Record) {
	if !cloak.ContainsClosed(rec.Loc) {
		r.Masking = false
		r.Problems = append(r.Problems, fmt.Sprintf(
			"cloak %v of user %q does not contain her location %v", cloak, rec.UserID, rec.Loc))
	}
}

// checkAnonymity audits sender k-anonymity against both attacker classes.
func (r *Report) checkAnonymity(s *attacker.Survey) {
	awareBreaches, minAware := s.Audit(r.K, attacker.PolicyAware)
	r.MinAware = minAware
	r.PolicyAware = len(awareBreaches) == 0
	for _, b := range awareBreaches {
		r.Problems = append(r.Problems, "policy-aware: "+b.String())
	}
	unawareBreaches, minUnaware := s.Audit(r.K, attacker.PolicyUnaware)
	r.MinUnaware = minUnaware
	r.PolicyUnaware = len(unawareBreaches) == 0
	for _, b := range unawareBreaches {
		r.Problems = append(r.Problems, "policy-unaware: "+b.String())
	}
	// Proposition 1 cross-check: policy-aware anonymity must imply
	// policy-unaware anonymity; if the audits ever disagree in the other
	// direction, the attacker model itself is broken.
	if r.PolicyAware && !r.PolicyUnaware {
		r.Problems = append(r.Problems, "Proposition 1 violated: aware-safe but unaware-breached")
	}
}

// buildWitness constructs and validates the k PREs of Definition 6. PRE i
// maps every issued cloak to the i-th member of its cloaking group — the
// policy-aware candidates in attacker.Candidates order.
func buildWitness(a *lbs.Assignment, groups []lbs.Group, k int) ([]map[geo.Rect]string, error) {
	for _, g := range groups {
		if len(g.Members) < k {
			return nil, fmt.Errorf("cloak %v admits only %d PREs", g.Cloak, len(g.Members))
		}
	}
	db := a.DB()
	witness := make([]map[geo.Rect]string, k)
	// highest[g] is the highest record a sender of group g resolved to so
	// far. Senders that resolve to strictly rising records are pairwise
	// distinct, which is the normal case; only a sender that does not rise
	// is compared against the earlier PREs of its cloak.
	highest := make([]int, len(groups))
	for g := range highest {
		highest[g] = -1
	}
	for i := range witness {
		pre := make(map[geo.Rect]string, len(groups))
		witness[i] = pre
		for g, grp := range groups {
			cloak, user := grp.Cloak, db.At(grp.Members[i]).UserID
			pre[cloak] = user
			// Validate the PRE against Definition 5: the mapped service
			// request is valid w.r.t. D and the policy maps it back to
			// the observed cloak.
			at := db.Index(user)
			if at < 0 {
				return nil, fmt.Errorf("PRE %d maps %v to unknown user %q", i, cloak, user)
			}
			if a.CloakAt(at) != cloak {
				return nil, fmt.Errorf("PRE %d not reproduced by the policy for %q", i, user)
			}
			if !cloak.ContainsClosed(db.At(at).Loc) {
				return nil, fmt.Errorf("PRE %d violates masking for %q", i, user)
			}
			if at > highest[g] {
				highest[g] = at
				continue
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
