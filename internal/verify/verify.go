// Package verify is the defence-in-depth validation harness run before a
// policy is trusted: it re-derives, from first principles, every property
// the system promises about an assignment — the masking property
// (Definition 4), sender k-anonymity against both attacker classes
// (Definition 6), and the structural sanity of the cloaking groups.
//
// The gate proves Definition 6; it does not build it. The k Possible
// Reverse Engineerings exist exactly when every cloaking group has at
// least k members: PRE i maps each issued cloak to the i-th member of its
// group. Each member is a known user (location.DB holds one record per
// id), the policy maps it back to the cloak (checked here, member by
// member), its record lies in the cloak (the masking pass), and the
// members of one group are distinct records. So the checks below suffice
// and no PRE is materialised.
//
// The anonymization pipeline already guarantees these properties by
// construction; this package exists so that operational surfaces
// (simulation, the rolling publisher, every motion publish) can verify
// rather than trust.
package verify

import (
	"fmt"

	"policyanon/internal/attacker"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// Report is the outcome of a full policy verification. When OK, it is a
// proof that the k PREs of Definition 6 exist (see the package comment),
// not a list of them.
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
	// DeltaScoped marks a report produced by Delta: masking was re-checked
	// only for the records the delta touched and the cloaking groups were
	// not cross-checked against the policy. The anonymity checks and Min
	// fields cover every issued cloak, as in a full report.
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
// counts — and each group member's cloak is read back from the policy, so
// the whole check is O(|D|), not O(|D|·groups).
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
	// The one check the survey cannot make of itself: every member of a
	// cloaking group is issued the group's cloak, so the group is the
	// policy-aware candidate set a bug in Groups could misstate.
	for _, g := range s.Groups() {
		for _, m := range g.Members {
			if got := a.CloakAt(m); got != g.Cloak {
				r.Problems = append(r.Problems, fmt.Sprintf(
					"user %q is grouped under cloak %v but issued %v", db.At(m).UserID, g.Cloak, got))
			}
		}
	}
	r.checkAnonymity(s)
	return r
}

// Delta verifies a delta-derived assignment without Policy's two
// per-record passes that a delta cannot have invalidated: masking is
// re-checked only for the records the delta moved or re-cloaked (every
// other record and cloak is unchanged since an ancestor was verified in
// full), and the groups are not cross-checked against the policy. Sender
// k-anonymity is checked against both attacker classes for every issued
// cloak, from the assignment's own survey, exactly as Policy does — so
// the cost is still O(|D|) (the survey pass and its grid), close to
// Policy's, and not O(touched). Every publish path verifies in full; the
// repo benchmark's moves_publish probe times Delta beside Policy as
// verify.delta_ms. For assignments without a delta it falls back to
// Policy.
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
