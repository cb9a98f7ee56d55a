package core

import (
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
)

// Publisher is the delta-publication chain over one Anonymizer: the one
// step every caller that maintains the matrix under movement (Section V)
// and publishes one policy per snapshot (Section II-A) goes through.
//
// While the chain is anchored — the last published assignment matches the
// matrix's extraction baseline — Publish extracts only the changed cloaks
// (Matrix.ExtractDelta) and derives the next assignment copy-on-write
// (Assignment.ApplyDelta), so a small batch costs O(dirty subtrees), not
// O(|D|). Otherwise it publishes in full over an O(pages) copy-on-write
// view of the snapshot (CloneWithMoves(nil)). Only a publish that passes the caller's gate anchors the
// chain; every failure (a failed Move, a delta that does not match its
// parent, a gate refusal) unanchors it, so the next publish is full.
//
// A Publisher is not safe for concurrent use; callers serialize Move and
// Publish. Published assignments are immutable and may be shared freely.
type Publisher struct {
	anon *Anonymizer
	// last is the anchored parent the next delta derives from; nil when
	// the chain is unanchored.
	last *lbs.Assignment
	// staged holds, per record moved since the last anchor, its location
	// in last (the From ApplyDelta validates) and its latest target.
	staged map[int]lbs.Move
}

// Publication is the outcome of one successful Publish.
type Publication struct {
	// Policy is the published assignment, bound to an immutable snapshot.
	Policy *lbs.Assignment
	// Rows is the number of configuration-matrix rows recomputed.
	Rows int
	// RowsExtracted is the number of tree nodes the policy-exhibition pass
	// re-assigned (|D| for full publishes).
	RowsExtracted int
	// CloaksChanged is the number of per-user cloak rewrites the publish
	// carried (|D| for full publishes).
	CloaksChanged int
	// Delta marks a publish through the copy-on-write delta path.
	Delta bool
}

// NewPublisher starts an unanchored chain over anon, which it takes
// ownership of: all further moves go through the Publisher.
func NewPublisher(anon *Anonymizer) *Publisher {
	return &Publisher{anon: anon, staged: make(map[int]lbs.Move)}
}

// Move relocates record i and stages the move for the next delta. A
// failed Move may leave the live state half-updated, so it unanchors the
// chain.
func (p *Publisher) Move(i int, to geo.Point) error {
	from := p.anon.db.At(i).Loc
	if err := p.anon.Move(i, to); err != nil {
		p.last = nil
		return err
	}
	if p.last != nil {
		mv, ok := p.staged[i]
		if !ok {
			mv = lbs.Move{Index: i, From: from}
		}
		mv.To = to
		p.staged[i] = mv
	}
	return nil
}

// Publish refreshes the matrix, derives the next assignment — by delta
// while the chain is anchored, in full otherwise or when the delta does
// not match its parent — and runs gate on it (nil accepts everything).
// A passed gate anchors the chain on the result; any error leaves it
// unanchored, and the caller keeps its previous publication.
func (p *Publisher) Publish(gate func(*lbs.Assignment) error) (Publication, error) {
	pub := Publication{Rows: p.anon.Refresh()}
	parent := p.last
	p.last = nil
	if parent != nil {
		// ErrNoDeltaBaseline or ErrDeltaMismatch: the matrix has absorbed
		// the changes either way, so the full publish below self-heals.
		if changes, visited, err := p.anon.matrix.ExtractDelta(); err == nil {
			mvs := make([]lbs.Move, 0, len(p.staged))
			for _, mv := range p.staged {
				mvs = append(mvs, mv)
			}
			if next, err := parent.ApplyDelta(mvs, changes); err == nil {
				pub.Policy, pub.RowsExtracted, pub.CloaksChanged, pub.Delta = next, visited, len(changes), true
			}
		}
	}
	if pub.Policy == nil {
		full, err := p.anon.matrix.Policy(p.anon.db.CloneWithMoves(nil))
		if err != nil {
			return Publication{}, err
		}
		pub.Policy, pub.RowsExtracted, pub.CloaksChanged = full, full.Len(), full.Len()
	}
	if gate != nil {
		if err := gate(pub.Policy); err != nil {
			return Publication{}, err
		}
	}
	p.Anchor(pub.Policy)
	return pub, nil
}

// Anchor makes a the parent of the next delta. a must hold the snapshot
// and cloaks of the matrix's last extraction (a caller adopting a policy
// it published itself); if it does not, the next Publish detects the
// mismatch and publishes in full.
func (p *Publisher) Anchor(a *lbs.Assignment) {
	p.last = a
	clear(p.staged)
}

// Anchored returns the assignment the next delta derives from, or nil
// when the chain is unanchored.
func (p *Publisher) Anchored() *lbs.Assignment { return p.last }
