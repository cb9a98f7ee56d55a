package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"

	"policyanon/internal/geo"
	"policyanon/internal/location"
	"policyanon/internal/motion"
)

// maxSnapshotBody caps a /v1/snapshot body at 4× the paper's 1.75M-user
// Master set (Section VI) at the ~38 bytes a user takes on the wire. The
// other install route, /v1/pois, takes the same cap.
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
	recs := records(req.Users)
	req.Users = nil
	return req, recs, nil
}

// records converts users from their wire type.
func records(users []UserJSON) []location.Record {
	recs := make([]location.Record, len(users))
	for i, u := range users {
		recs[i] = location.Record{UserID: u.ID, Loc: geo.Point{X: u.X, Y: u.Y}}
	}
	return recs
}

// minUserBytes is the length of the shortest canonical user,
// {"id":"","x":0,"y":0}. It caps usersArray's first guess at how many
// users an array holds, so braces inside ids cannot inflate the guess
// past a small multiple of the body; an array of shorter users, such as
// {}, grows the records past it.
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
	s := scanner{b: body}
	seen := 0
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
			recs = s.usersArray()
		default:
			s.bad = true
		}
		s.bad = s.bad || seen&bit != 0
		seen |= bit
	}
	if !s.atEnd() {
		return SnapshotRequest{}, nil, false
	}
	return req, recs, true
}

// decodeMoves decodes a /v1/moves body for the synchronous protocol: the
// plain grammar through scanMoves, any other body through json.Unmarshal.
func decodeMoves(body []byte) ([]location.Record, error) {
	if moves, ok := scanMoves(body); ok {
		return moves, nil
	}
	var req MovesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	return records(req.Moves), nil
}

// decodeStreamMoves decodes a /v1/moves body for the streaming protocol,
// whose coordinates are float64, into pipeline updates: the plain grammar
// through scanMoves, any other body through json.Unmarshal.
func decodeStreamMoves(body []byte) ([]motion.Update, error) {
	if moves, ok := scanMoves(body); ok {
		ups := make([]motion.Update, len(moves))
		for i, m := range moves {
			ups[i] = motion.Update{UserID: m.UserID, X: float64(m.Loc.X), Y: float64(m.Loc.Y)}
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
func scanMoves(body []byte) (moves []location.Record, ok bool) {
	s := scanner{b: body}
	seen := false
	for more := s.open('{', '}'); more; more = s.next('}') {
		key := s.key()
		s.bad = s.bad || string(key) != "moves" || seen
		seen = true
		moves = s.usersArray()
	}
	if !s.atEnd() || s.negZero {
		return nil, false
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
		end, ok := strEnd(s.b, start)
		if s.i = end; ok {
			s.i++
			return s.b[start:end]
		}
	}
	s.bad = true
	return nil
}

// strEnd finds the closing quote of the string whose contents start at
// b[i]; ok is false, and end where it stopped, if a control byte, a
// backslash, a non-ASCII byte or the end of b comes first.
func strEnd(b []byte, i int) (end int, ok bool) {
	for ; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return i, false
		}
	}
	return i, false
}

// key consumes an object key and the colon after it.
func (s *scanner) key() []byte {
	k := s.str()
	s.bad = s.bad || !s.eat(':')
	return k
}

// integer consumes a JSON integer literal (integerAt) after whitespace.
func (s *scanner) integer() int64 {
	s.ws()
	v, end, neg, ok := integerAt(s.b, s.i)
	s.i, s.bad, s.negZero = end, s.bad || !ok, s.negZero || neg && v == 0
	return v
}

// integerAt reads the JSON integer literal of at most 18 digits at b[i:]:
// an optional minus, then 0 or a digit string without a leading zero. A
// fraction, an exponent or a further digit after it starts at end, where
// next rejects it; ok is false if there are no digits or too many.
func integerAt(b []byte, i int) (v int64, end int, neg, ok bool) {
	if neg = i < len(b) && b[i] == '-'; neg {
		i++
	}
	start := i
	for i < len(b) && b[i]-'0' <= 9 {
		v = v*10 + int64(b[i]-'0')
		i++
		if v == 0 {
			break // a leading 0 is the whole literal
		}
	}
	if neg {
		v = -v
	}
	n := i - start
	return v, i, neg, n > 0 && n <= 18
}

// int32 consumes an integer literal that fits an int32.
func (s *scanner) int32() int32 {
	v := s.integer()
	s.bad = s.bad || int64(int32(v)) != v
	return int32(v)
}

// usersArray consumes an array of users, as element reads them, and
// returns them in wire order with their ids substrings of one backing
// string exactly as long as the ids together; nil for an empty array or
// a bad scanner.
func (s *scanner) usersArray() []location.Record {
	if !s.open('[', ']') {
		return nil
	}
	rest := s.b[s.i:]
	n := min(bytes.Count(rest, []byte{'}'}), len(rest)/minUserBytes) + 1
	recs := make([]location.Record, 0, n)
	ids := make([]span, 0, n)
	idBytes := 0
	for more := true; more; more = s.next(']') {
		id, loc := s.element()
		ids = append(ids, id)
		idBytes += int(id.to - id.from)
		recs = append(recs, location.Record{Loc: loc})
	}
	if s.bad {
		return nil
	}
	var all strings.Builder
	all.Grow(idBytes)
	for _, id := range ids {
		all.Write(s.b[id.from:id.to])
	}
	backing, from := all.String(), 0
	for i, id := range ids {
		to := from + int(id.to-id.from)
		recs[i].UserID = backing[from:to]
		from = to
	}
	return recs
}

// span is where an id lies in the body: b[from:to]. A body is at most
// maxSnapshotBody bytes, far inside uint32.
type span struct{ from, to uint32 }

// element consumes one element of a user array: by plainUser if it is
// spelled as every client of this repository spells it, by user if not.
func (s *scanner) element() (span, geo.Point) {
	if id, loc, ok := s.plainUser(); ok {
		return id, loc
	}
	return s.user()
}

// plainUser consumes the user at the cursor if it is spelled exactly
// {"id":"…","x":N,"y":N}, with no whitespace, and decodes it as user
// would, through the same strEnd and integerAt. ok is false, and the
// scanner untouched, for any other spelling and for a -0, whose sign
// only user records.
func (s *scanner) plainUser() (id span, loc geo.Point, ok bool) {
	const head, xKey, yKey = `{"id":"`, `","x":`, `,"y":`
	b, i := s.b, s.i
	if !hasAt(b, i, head) {
		return
	}
	from := i + len(head)
	to, ok := strEnd(b, from)
	if !ok || !hasAt(b, to, xKey) {
		return id, loc, false
	}
	if loc.X, i, ok = int32At(b, to+len(xKey)); !ok || !hasAt(b, i, yKey) {
		return id, loc, false
	}
	if loc.Y, i, ok = int32At(b, i+len(yKey)); !ok || !hasAt(b, i, "}") {
		return id, loc, false
	}
	s.i = i + 1
	return span{uint32(from), uint32(to)}, loc, true
}

// hasAt reports whether b[i:] starts with lit.
func hasAt(b []byte, i int, lit string) bool {
	return len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

// int32At reads the integer literal at b[i:] as int32 does; ok is false
// for a -0 and for anything int32 would not take.
func int32At(b []byte, i int) (v int32, end int, ok bool) {
	w, end, neg, ok := integerAt(b, i)
	return int32(w), end, ok && !(neg && w == 0) && int64(int32(w)) == w
}

// user consumes one element of a user array: an object with each of id,
// x and y at most once, in any order; a missing member is its zero value.
func (s *scanner) user() (id span, loc geo.Point) {
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
			str := s.str()
			end := s.i - 1 // the closing quote
			id = span{uint32(end - len(str)), uint32(end)}
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
