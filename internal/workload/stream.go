package workload

import (
	"math"
	"math/rand"

	"policyanon/internal/geo"
	"policyanon/internal/location"
)

// MoveStream is the continuous-emission form of the movement model: where
// PlanMoves produces one between-snapshots batch, a MoveStream emits an
// endless sequence of bounded moves suitable for feeding a live ingest
// pipeline. It keeps private copies of every user's position — advanced as
// moves are emitted — so each emitted move respects the ≤ maxDistMeters
// bounded-motion model relative to the user's previous emitted position,
// regardless of when (or whether) the consumer applies it.
//
// Users are visited in shuffled round-robin order (reshuffled every full
// pass), so churn spreads evenly instead of hammering a hot subset. A
// MoveStream is deterministic in its seed and not safe for concurrent use.
type MoveStream struct {
	rng  *rand.Rand
	ids  []string
	pos  []geo.Point
	max  float64
	side int32

	order []int
	next  int
}

// NewMoveStream captures the users and positions of db (by copy; db is
// not retained) and emits moves of at most maxDistMeters on the
// side×side map.
func NewMoveStream(seed int64, db *location.DB, maxDistMeters float64, side int32) *MoveStream {
	s := &MoveStream{
		rng:  rand.New(rand.NewSource(seed)),
		ids:  make([]string, db.Len()),
		pos:  make([]geo.Point, db.Len()),
		max:  maxDistMeters,
		side: side,
	}
	for i, r := range db.Records() {
		s.ids[i] = r.UserID
		s.pos[i] = r.Loc
	}
	s.order = s.rng.Perm(len(s.ids))
	return s
}

// UserID returns the user id behind a record index, for consumers that
// address updates by id rather than index.
func (s *MoveStream) UserID(idx int) string { return s.ids[idx] }

// Next emits one move: the next user in round-robin order displaced a
// uniform random distance in (0, maxDistMeters] in a uniformly random
// direction, clipped to the map.
func (s *MoveStream) Next() Move {
	if s.next >= len(s.order) {
		s.order = s.rng.Perm(len(s.ids))
		s.next = 0
	}
	idx := s.order[s.next]
	s.next++
	from := s.pos[idx]
	theta := s.rng.Float64() * 2 * math.Pi
	dist := s.rng.Float64() * s.max
	to := geo.Point{
		X: clampInt32(float64(from.X)+dist*math.Cos(theta), s.side),
		Y: clampInt32(float64(from.Y)+dist*math.Sin(theta), s.side),
	}
	s.pos[idx] = to
	return Move{Index: idx, To: to}
}

// NextBatch emits the next n moves.
func (s *MoveStream) NextBatch(n int) []Move {
	moves := make([]Move, n)
	for i := range moves {
		moves[i] = s.Next()
	}
	return moves
}
