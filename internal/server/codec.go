package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"policyanon/internal/geo"
	"policyanon/internal/lbs"
)

// The wire codecs of the serving routes. /v1/request and
// /v1/request/batch follow the rule /v1/snapshot set: a body in the plain
// grammar is decoded by the scanner, every other body by json.Unmarshal
// whole, so what is accepted and what it decodes to stays encoding/json's
// (FuzzRequestDecode, FuzzBatchDecode). Their 200 responses are one
// shape, written by the append encoder below; FuzzItemEncode holds it
// byte for byte to json.Marshal of the wire structs.

// maxItemBytes bounds one service request on the wire: a user id, two
// coordinates and a short parameter vector (the repository's own clients
// send about 90 bytes). It is the body limit of /v1/request and, times
// maxBatchRequests, of /v1/request/batch (about 10 MB) — which is also
// what bounds a body of the non-plain grammar, the one decoded before its
// items can be counted.
const (
	maxItemBytes = 1 << 10
	maxBatchBody = maxBatchRequests * maxItemBytes
)

// bodyOrError is readBody for a handler: when the body cannot be read it
// answers 413 (over limit) or 400 itself and reports false.
func bodyOrError(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body, err := readBody(w, r, limit)
	if err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		httpError(w, status, fmt.Errorf("read body: %w", err))
		return nil, false
	}
	return body, true
}

// decodeRequest decodes a /v1/request body.
func decodeRequest(body []byte) (ServiceRequestJSON, error) {
	if rq, ok := scanRequest(body); ok {
		return rq, nil
	}
	var rq ServiceRequestJSON
	err := json.Unmarshal(body, &rq)
	return rq, err
}

// scanRequest is the one-pass decoder of the plain grammar of a
// /v1/request body (scanSnapshot states the grammar).
func scanRequest(body []byte) (ServiceRequestJSON, bool) {
	s := scanner{b: body}
	var params []lbs.Param
	rq := s.request(string(body), &params)
	return rq, s.atEnd()
}

// decodeBatch decodes a /v1/request/batch body. n is the number of
// requests in it; beyond maxBatchRequests the scanner only counts them
// and reqs is nil.
func decodeBatch(body []byte) (reqs []ServiceRequestJSON, n int, err error) {
	if reqs, n, ok := scanBatch(body); ok {
		return reqs, n, nil
	}
	var req BatchRequestJSON
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, 0, err
	}
	if len(req.Requests) > maxBatchRequests {
		return nil, len(req.Requests), nil
	}
	return req.Requests, len(req.Requests), nil
}

// scanBatch is the one-pass decoder of the plain grammar of a batch body
// (scanSnapshot states the grammar). The strings of the requests are
// substrings of one copy of the body and their parameter vectors
// subslices of one array.
func scanBatch(body []byte) (reqs []ServiceRequestJSON, n int, ok bool) {
	s := scanner{b: body}
	seen := false
	for more := s.open('{', '}'); more; more = s.next('}') {
		if string(s.key()) != "requests" || seen {
			return nil, 0, false
		}
		seen = true
		more := s.open('[', ']')
		if !more {
			reqs = []ServiceRequestJSON{}
			continue
		}
		// Every request and every parameter opens one object, so the
		// braces bound both arrays and neither is ever regrown.
		objects := bytes.Count(body, []byte{'{'}) - 1
		backing := string(body)
		reqs = make([]ServiceRequestJSON, 0, min(objects, maxBatchRequests))
		params := make([]lbs.Param, 0, objects)
		for ; more; more = s.next(']') {
			rq := s.request(backing, &params)
			if n++; n <= maxBatchRequests {
				reqs = append(reqs, rq)
			}
		}
	}
	if !s.atEnd() {
		return nil, 0, false
	}
	if n > maxBatchRequests {
		reqs = nil
	}
	return reqs, n, true
}

// atEnd reports whether the scanner consumed the whole body, and nothing
// but the plain grammar.
func (s *scanner) atEnd() bool {
	s.ws()
	return !s.bad && s.i == len(s.b)
}

// strIn is str for a caller that keeps its strings as substrings of
// backing, the scanned body as one string.
func (s *scanner) strIn(backing string) string {
	b := s.str()
	if s.bad {
		return ""
	}
	end := s.i - 1 // the closing quote
	return backing[end-len(b) : end]
}

// request consumes one service request: an object with each of user, x, y
// and params at most once, in any order. Its parameters are appended to
// *params, and its Params is the subslice they landed in.
func (s *scanner) request(backing string, params *[]lbs.Param) (rq ServiceRequestJSON) {
	const (
		seenUser = 1 << iota
		seenX
		seenY
		seenParams
	)
	seen := 0
	for more := s.open('{', '}'); more; more = s.next('}') {
		bit := 0
		switch string(s.key()) {
		case "user":
			bit = seenUser
			rq.User = s.strIn(backing)
		case "x":
			bit = seenX
			rq.X = s.int32()
		case "y":
			bit = seenY
			rq.Y = s.int32()
		case "params":
			bit = seenParams
			from := len(*params)
			for more := s.open('[', ']'); more; more = s.next(']') {
				*params = append(*params, s.param(backing))
			}
			rq.Params = (*params)[from:len(*params):len(*params)]
			if rq.Params == nil {
				rq.Params = []lbs.Param{} // what encoding/json makes of []
			}
		default:
			s.bad = true
		}
		s.bad = s.bad || seen&bit != 0
		seen |= bit
	}
	return rq
}

// param consumes one element of "params": an object with each of name and
// value at most once.
func (s *scanner) param(backing string) (p lbs.Param) {
	const (
		seenName = 1 << iota
		seenValue
	)
	seen := 0
	for more := s.open('{', '}'); more; more = s.next('}') {
		bit := 0
		switch string(s.key()) {
		case "name":
			bit = seenName
			p.Name = s.strIn(backing)
		case "value":
			bit = seenValue
			p.Value = s.strIn(backing)
		default:
			s.bad = true
		}
		s.bad = s.bad || seen&bit != 0
		seen |= bit
	}
	return p
}

// served is one answered request on its way to the wire. A failed one has
// only err; rendered, when non-nil, is the candidates member as the CSP's
// cache entry keeps it (renderCandidates).
type served struct {
	rid      uint64
	cloak    geo.Rect
	answer   []lbs.POI
	rendered []byte
	err      error
}

// respBuf is a response under construction; the buffers are pooled.
type respBuf struct{ b []byte }

var respBufs = sync.Pool{New: func() any { return new(respBuf) }}

// maxPooledResp is the largest response buffer kept for reuse: a few
// times a 64-item batch's, far below a 10 000-item one's.
const maxPooledResp = 1 << 18

// writeAndFree sends the buffer as a 200 JSON body with its
// Content-Length and returns it to the pool.
func (rb *respBuf) writeAndFree(w http.ResponseWriter) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(rb.b)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(rb.b) // a client that hung up; nothing to tell it
	if cap(rb.b) <= maxPooledResp {
		respBufs.Put(rb)
	}
}

// writeRequestOK answers /v1/request. The members are in key order, as
// encoding/json writes a map: the order this body's readers have always
// been sent.
func writeRequestOK(w http.ResponseWriter, sv *served) {
	rb := respBufs.Get().(*respBuf)
	b := append(rb.b[:0], '{')
	b = appendCandidates(b, sv)
	b = append(b, `,"cloak":`...)
	b = appendCloak(b, sv.cloak)
	b = append(b, `,"rid":`...)
	b = strconv.AppendUint(b, sv.rid, 10)
	rb.b = append(b, "}\n"...)
	rb.writeAndFree(w)
}

// writeBatchOK answers /v1/request/batch: items[i] under the request ID
// "<batchRID>-<i>".
func writeBatchOK(w http.ResponseWriter, batchRID string, items []served) {
	// The batch's ID may come from an X-Request-ID header and hold
	// anything, so it is escaped, once; the "-<i>" after it never needs
	// to be. ridOpen is the literal up to where the index goes.
	var ridBuf [64]byte
	ridOpen := appendJSONString(ridBuf[:0], batchRID)
	ridOpen[len(ridOpen)-1] = '-'
	rb := respBufs.Get().(*respBuf)
	b := append(rb.b[:0], `{"results":[`...)
	for i := range items {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendItem(b, ridOpen, i, &items[i])
	}
	rb.b = append(b, "]}\n"...)
	rb.writeAndFree(w)
}

// appendItem appends one request's result within a batch response; the
// results are in the order submitted. A failed item carries its error
// (plus its request ID) and nothing else, and the batch itself still
// answers 200: per-item failures (unknown user, spoofed location) must
// not void its neighbours. The request ID is the item's derived
// X-Request-ID ("<batch-rid>-<i>"), which also appears in the item's slog
// lines, breach records and spans, so batch failures are correlatable
// like single requests. The bytes are what json.Marshal writes for the
// BatchItemJSON the item stands for (FuzzItemEncode): members in its
// order, an empty or zero one omitted.
func appendItem(b, ridOpen []byte, i int, sv *served) []byte {
	b = append(b, `{"requestID":`...)
	b = append(b, ridOpen...)
	b = strconv.AppendInt(b, int64(i), 10)
	b = append(b, '"')
	if sv.err != nil {
		if msg := sv.err.Error(); msg != "" {
			b = append(b, `,"error":`...)
			b = appendJSONString(b, msg)
		}
		return append(b, '}')
	}
	if sv.rid != 0 {
		b = append(b, `,"rid":`...)
		b = strconv.AppendUint(b, sv.rid, 10)
	}
	b = append(b, `,"cloak":`...)
	b = appendCloak(b, sv.cloak)
	if len(sv.answer) > 0 {
		b = append(b, ',')
		b = appendCandidates(b, sv)
	}
	return append(b, '}')
}

func appendCloak(b []byte, r geo.Rect) []byte {
	b = append(b, `{"minX":`...)
	b = strconv.AppendInt(b, int64(r.MinX), 10)
	b = append(b, `,"minY":`...)
	b = strconv.AppendInt(b, int64(r.MinY), 10)
	b = append(b, `,"maxX":`...)
	b = strconv.AppendInt(b, int64(r.MaxX), 10)
	b = append(b, `,"maxY":`...)
	b = strconv.AppendInt(b, int64(r.MaxY), 10)
	return append(b, '}')
}

// appendCandidates appends the member "candidates":[...] of sv's answer:
// the cache entry's rendering when the CSP returned one, a fresh one
// otherwise. The two are the same bytes.
func appendCandidates(b []byte, sv *served) []byte {
	if sv.rendered != nil {
		return append(b, sv.rendered...)
	}
	return appendCandidatesOf(b, sv.answer)
}

func appendCandidatesOf(b []byte, answer []lbs.POI) []byte {
	b = append(b, `"candidates":[`...)
	for i := range answer {
		p := &answer[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = appendJSONString(b, p.ID)
		b = append(b, `,"x":`...)
		b = strconv.AppendInt(b, int64(p.Loc.X), 10)
		b = append(b, `,"y":`...)
		b = strconv.AppendInt(b, int64(p.Loc.Y), 10)
		b = append(b, `,"category":`...)
		b = appendJSONString(b, p.Category)
		b = append(b, '}')
	}
	return append(b, ']')
}

// renderCandidates is the rendering a CSP cache entry keeps
// (lbs.CSP.ServeRendered): the candidates member in a slice of exactly
// its size, since it lives as long as the entry.
func renderCandidates(answer []lbs.POI) []byte {
	rb := respBufs.Get().(*respBuf)
	rb.b = appendCandidatesOf(rb.b[:0], answer)
	out := bytes.Clone(rb.b)
	respBufs.Put(rb)
	return out
}

// jsonPlain returns the length of the prefix of s that encoding/json
// copies into a string literal as it is: ASCII from 0x20 up, less the
// quote, the backslash and the three characters it escapes for HTML.
func jsonPlain(s string) int {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c >= utf8.RuneSelf, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return i
		}
	}
	return len(s)
}

// appendJSONString appends s as the JSON string literal json.Marshal
// writes for it, HTML escaping included.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for {
		n := jsonPlain(s)
		b = append(b, s[:n]...)
		if s = s[n:]; s == "" {
			return append(b, '"')
		}
		size := 1
		switch c := s[0]; c {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, `\b`...)
		case '\f':
			b = append(b, `\f`...)
		case '\n':
			b = append(b, `\n`...)
		case '\r':
			b = append(b, `\r`...)
		case '\t':
			b = append(b, `\t`...)
		default:
			if c < utf8.RuneSelf { // the other control bytes, and < > &
				b = append(b, `\u00`...)
				b = append(b, hex[c>>4], hex[c&0xf])
				break
			}
			var r rune
			switch r, size = utf8.DecodeRuneInString(s); {
			case r == utf8.RuneError && size == 1:
				b = append(b, `\ufffd`...)
			case r == '\u2028' || r == '\u2029': // valid JSON, invalid JavaScript
				b = append(b, `\u202`...)
				b = append(b, hex[r&0xf])
			default:
				b = append(b, s[:size]...)
			}
		}
		s = s[size:]
	}
}
