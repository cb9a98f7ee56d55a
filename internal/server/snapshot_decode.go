package server

import (
	"bytes"
	"encoding/json"
	"net/http"

	"policyanon/internal/geo"
	"policyanon/internal/location"
	"policyanon/internal/motion"
)

// maxSnapshotBody caps a /v1/snapshot body at 4× the paper's 1.75M-user
// Master set (Section VI) at the ~38 bytes a user takes on the wire. The
// other install routes, /v1/pois and /v1/restore, take the same cap.
const maxSnapshotBody = 256 << 20

// readBody reads a request body of at most limit bytes into one buffer,
// sized from Content-Length when the client declared one. A longer body
// fails with *http.MaxBytesError — before anything is read when the
// declared length already exceeds the limit.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	if r.ContentLength > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// MinRead of slack lets ReadFrom see EOF without growing.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeSnapshot decodes a /v1/snapshot body. It returns the request with
// Users left nil and the user list as location records instead, in wire
// order, ready for location.FromRecords.
//
// A body in the plain grammar — what every client of this repository
// sends — is decoded in one pass with no intermediate []UserJSON; the ids
// come out as substrings of a single backing string of exactly their
// total length. Any other body is handed to json.Unmarshal whole, so
// which bodies are accepted, and what they decode to, stays
// encoding/json's (FuzzSnapshotDecode holds the two equal).
func decodeSnapshot(body []byte) (SnapshotRequest, []location.Record, error) {
	if req, recs, ok := scanSnapshot(body); ok {
		return req, recs, nil
	}
	var req SnapshotRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return SnapshotRequest{}, nil, err
	}
	recs := make([]location.Record, len(req.Users))
	for i, u := range req.Users {
		recs[i] = location.Record{UserID: u.ID, Loc: geo.Point{X: u.X, Y: u.Y}}
	}
	req.Users = nil
	return req, recs, nil
}

// minUserBytes is the shortest user object the plain grammar admits,
// {"id":"","x":0,"y":0}, and so bounds the user count of a body.
const minUserBytes = 21

// scanSnapshot is the one-pass decoder of the plain grammar: objects
// whose keys are spelled exactly as SnapshotRequest's tags and appear at
// most once, strings of unescaped ASCII, integer literals that fit their
// field, JSON whitespace between tokens, nothing after the closing brace.
// ok is false for every other body, valid or not: escapes, non-ASCII,
// case-variant, unknown or repeated keys, null, fractions and exponents,
// out-of-range numbers — encoding/json has a rule for each of those and
// this scanner takes no position on any of them.
func scanSnapshot(body []byte) (req SnapshotRequest, recs []location.Record, ok bool) {
	const (
		seenK = 1 << iota
		seenMapSide
		seenEngine
		seenOpts
		seenUsers
	)
	var (
		s     = scanner{b: body}
		seen  int
		ids   []byte   // the ids, concatenated in wire order
		idEnd []uint32 // idEnd[i] is where user i's id ends in ids
	)
	for more := s.open('{', '}'); more; more = s.next('}') {
		bit := 0
		switch string(s.key()) {
		case "k":
			bit = seenK
			v := s.integer()
			req.K = int(v)
			s.bad = s.bad || int64(req.K) != v
		case "mapSide":
			bit = seenMapSide
			req.MapSide = s.int32()
		case "engine":
			bit = seenEngine
			req.Engine = string(s.str())
		case "opts":
			bit = seenOpts
			req.Opts = map[string]string{}
			for more := s.open('{', '}'); more; more = s.next('}') {
				name := s.key()
				req.Opts[string(name)] = string(s.str())
			}
		case "users":
			bit = seenUsers
			more := s.open('[', ']')
			if more {
				n := min(bytes.Count(body, []byte{'}'}), len(body)/minUserBytes)
				recs = make([]location.Record, 0, n)
				idEnd = make([]uint32, 0, n)
				ids = make([]byte, 0, len(body)/4)
			}
			for ; more; more = s.next(']') {
				id, loc := s.user()
				ids = append(ids, id...)
				idEnd = append(idEnd, uint32(len(ids)))
				recs = append(recs, location.Record{Loc: loc})
			}
		default:
			s.bad = true
		}
		s.bad = s.bad || seen&bit != 0
		seen |= bit
	}
	if s.ws(); s.bad || s.i != len(body) {
		return SnapshotRequest{}, nil, false
	}
	backing := string(ids)
	from := uint32(0)
	for i, to := range idEnd {
		recs[i].UserID = backing[from:to]
		from = to
	}
	return req, recs, true
}

// decodeMoves decodes a /v1/moves body for the synchronous protocol: the
// plain grammar through scanMoves, any other body through json.Unmarshal.
func decodeMoves(body []byte) ([]UserJSON, error) {
	if moves, ok := scanMoves(body); ok {
		return moves, nil
	}
	var req MovesRequest
	err := json.Unmarshal(body, &req)
	return req.Moves, err
}

// decodeStreamMoves decodes a /v1/moves body for the streaming protocol,
// whose coordinates are float64, into pipeline updates: the plain grammar
// through scanMoves, any other body through json.Unmarshal.
func decodeStreamMoves(body []byte) ([]motion.Update, error) {
	if moves, ok := scanMoves(body); ok {
		ups := make([]motion.Update, len(moves))
		for i, m := range moves {
			ups[i] = motion.Update{UserID: m.ID, X: float64(m.X), Y: float64(m.Y)}
		}
		return ups, nil
	}
	var req StreamMovesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	ups := make([]motion.Update, len(req.Moves))
	for i, m := range req.Moves {
		ups[i] = motion.Update{UserID: m.ID, X: m.X, Y: m.Y}
	}
	return ups, nil
}

// scanMoves is the one-pass decoder of a /v1/moves body in the plain
// grammar: {"moves":[...]} whose elements are users as scanSnapshot reads
// them, ids again substrings of one backing string. Beyond what
// scanSnapshot declines it declines a "-0" coordinate, which the
// streaming protocol's float64 fields would decode as negative zero.
func scanMoves(body []byte) (moves []UserJSON, ok bool) {
	var (
		s     = scanner{b: body}
		seen  bool
		ids   []byte
		idEnd []uint32
	)
	for more := s.open('{', '}'); more; more = s.next('}') {
		key := s.key()
		s.bad = s.bad || string(key) != "moves" || seen
		seen = true
		more := s.open('[', ']')
		if more {
			n := min(bytes.Count(body, []byte{'}'}), len(body)/minUserBytes)
			moves = make([]UserJSON, 0, n)
			idEnd = make([]uint32, 0, n)
			ids = make([]byte, 0, len(body)/4)
		}
		for ; more; more = s.next(']') {
			id, loc := s.user()
			ids = append(ids, id...)
			idEnd = append(idEnd, uint32(len(ids)))
			moves = append(moves, UserJSON{X: loc.X, Y: loc.Y})
		}
	}
	if s.ws(); s.bad || s.negZero || s.i != len(body) {
		return nil, false
	}
	backing := string(ids)
	from := uint32(0)
	for i, to := range idEnd {
		moves[i].ID = backing[from:to]
		from = to
	}
	return moves, true
}

// scanner is a cursor over a body in the plain grammar. The first token
// that is not what the grammar wants next sets bad, which is sticky and
// ends every loop at its next member; until then the parsers may return
// garbage, which scanSnapshot discards with the whole body. Every read is
// bounds-checked, so a bad scanner is still a safe one.
type scanner struct {
	b   []byte
	i   int
	bad bool
	// negZero records a "-0" literal: an integer field takes it as 0, a
	// float64 field as negative zero.
	negZero bool
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\r', '\n':
			s.i++
		default:
			return
		}
	}
}

// eat consumes c, after whitespace, if it is the next token.
func (s *scanner) eat(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// open consumes the opening bracket of an object or array and reports
// whether a first member follows, consuming the closing bracket if not.
func (s *scanner) open(opening, closing byte) bool {
	s.bad = s.bad || !s.eat(opening)
	return !s.bad && !s.eat(closing)
}

// next moves past one member of a container: it reports true after a
// comma and false after the closing bracket, or once the scanner is bad.
func (s *scanner) next(closing byte) bool {
	if s.bad || s.eat(',') {
		return !s.bad
	}
	s.bad = !s.eat(closing)
	return false
}

// str consumes a string of unescaped ASCII and returns its contents.
func (s *scanner) str() []byte {
	if s.eat('"') {
		start := s.i
		for ; s.i < len(s.b); s.i++ {
			switch c := s.b[s.i]; {
			case c == '"':
				s.i++
				return s.b[start : s.i-1]
			case c < 0x20 || c == '\\' || c >= 0x80:
				s.bad = true
				return nil
			}
		}
	}
	s.bad = true
	return nil
}

// key consumes an object key and the colon after it.
func (s *scanner) key() []byte {
	k := s.str()
	s.bad = s.bad || !s.eat(':')
	return k
}

// integer consumes a JSON integer literal of at most 18 digits: an
// optional minus, then 0 or a digit string without a leading zero. A
// fraction, an exponent or a further digit after it is left unconsumed,
// where next rejects it.
func (s *scanner) integer() int64 {
	neg := s.eat('-')
	start := s.i
	var v int64
	for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
		v = v*10 + int64(s.b[s.i]-'0')
		s.i++
		if v == 0 {
			break // a leading 0 is the whole literal
		}
	}
	if n := s.i - start; n == 0 || n > 18 {
		s.bad = true
	}
	if neg {
		v = -v
		s.negZero = s.negZero || v == 0
	}
	return v
}

// int32 consumes an integer literal that fits an int32.
func (s *scanner) int32() int32 {
	v := s.integer()
	s.bad = s.bad || int64(int32(v)) != v
	return int32(v)
}

// user consumes one element of "users": an object with each of id, x and
// y at most once, in any order; a missing member is its zero value.
func (s *scanner) user() (id []byte, loc geo.Point) {
	const (
		seenID = 1 << iota
		seenX
		seenY
	)
	seen := 0
	for more := s.open('{', '}'); more; more = s.next('}') {
		bit := 0
		switch string(s.key()) {
		case "id":
			bit = seenID
			id = s.str()
		case "x":
			bit = seenX
			loc.X = s.int32()
		case "y":
			bit = seenY
			loc.Y = s.int32()
		default:
			s.bad = true
		}
		s.bad = s.bad || seen&bit != 0
		seen |= bit
	}
	return id, loc
}
