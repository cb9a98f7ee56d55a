// Package attacker implements the attack function of Section III: given
// the run-time inputs (the location database snapshot and the observed
// anonymized requests) and the design-time knowledge (the anonymity level k
// and the family of candidate policies), it reverse-engineers each
// anonymized request into its Possible Reverse Engineerings (Definition 5)
// and reports the set of possible senders.
//
// Two attacker classes are modelled, matching the paper's two extremes:
//
//   - PolicyUnaware: the attacker only knows the policy uses cloaks from
//     some family C of regions and observes a single request. Any user
//     inside the cloak admits a PRE (some masking policy in P_C maps it
//     there), so the candidate set is exactly the users covered by the
//     cloak. This is the guarantee k-inside policies provide
//     (Proposition 2).
//
//   - PolicyAware: the attacker knows the exact deterministic policy P in
//     use. A PRE must reproduce the observed cloak under P itself, so the
//     candidate set is the policy's cloaking group of that cloak — which
//     can be smaller than the users covered (Example 1 / Proposition 3).
package attacker

import (
	"fmt"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
)

// Awareness selects the attacker class of Section III.
type Awareness int

const (
	// PolicyUnaware attackers know only the cloak family, not the policy.
	PolicyUnaware Awareness = iota
	// PolicyAware attackers know the exact policy in use.
	PolicyAware
)

// String names the attacker class.
func (a Awareness) String() string {
	switch a {
	case PolicyUnaware:
		return "policy-unaware"
	case PolicyAware:
		return "policy-aware"
	default:
		return fmt.Sprintf("Awareness(%d)", int(a))
	}
}

// Candidates returns the user ids a k-anonymity attacker of the given
// class cannot distinguish among after observing an anonymized request
// with the given cloak, assuming policy a (as an Assignment) and full
// knowledge of the snapshot.
func Candidates(a *lbs.Assignment, cloak geo.Rect, aw Awareness) []string {
	db := a.DB()
	var out []string
	for i := 0; i < db.Len(); i++ {
		rec := db.At(i)
		switch aw {
		case PolicyUnaware:
			if cloak.ContainsClosed(rec.Loc) {
				out = append(out, rec.UserID)
			}
		case PolicyAware:
			if a.CloakAt(i) == cloak {
				out = append(out, rec.UserID)
			}
		}
	}
	return out
}

// Breach records a violation of sender k-anonymity: a cloak whose possible
// sender set has fewer than k members.
type Breach struct {
	Cloak      geo.Rect
	Candidates []string
}

// String renders the breach for reports.
func (b Breach) String() string {
	return fmt.Sprintf("cloak %v narrows senders to %v", b.Cloak, b.Candidates)
}

// Audit checks sender k-anonymity of the policy against the given attacker
// class, per Definition 6 applied to the case where every user issues one
// request: it returns all breaches (empty means the policy provides sender
// k-anonymity on this snapshot) and the minimum candidate-set size over
// all issued cloaks.
//
// Candidate-set sizes come from the assignment's Survey (for policy-aware
// attackers the candidate set IS the cloaking group; the policy-unaware
// containment counts come from its grid), so the audit is linear in |D|
// the first time an assignment is surveyed and O(groups) after that.
func Audit(a *lbs.Assignment, k int, aw Awareness) (breaches []Breach, minAnonymity int) {
	return SurveyOf(a).Audit(k, aw)
}

// GroupSizes returns the candidate-set size of every issued cloak (one
// entry per cloaking group, in Groups order) under the given attacker
// class — the full achieved-anonymity distribution the audit layer
// summarizes as min/p50/p95. Like Audit it reads the assignment's Survey,
// so concurrent calls over one assignment are safe.
func GroupSizes(a *lbs.Assignment, aw Awareness) []int {
	return SurveyOf(a).GroupSizes(aw)
}

// IsKAnonymous reports whether the policy provides sender k-anonymity on
// its snapshot against the given attacker class.
func IsKAnonymous(a *lbs.Assignment, k int, aw Awareness) bool {
	b, _ := Audit(a, k, aw)
	return len(b) == 0
}
