package audit

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// Request IDs correlate one serving request across the three
// observability sinks: the structured log line, the obs trace span, and
// the audit sample. The HTTP layer mints one per request (honouring an
// incoming X-Request-ID so a caller's ID survives the hop), threads it
// through context.Context, and echoes it in the response header;
// everything below the handler — engine middleware, parallel workers —
// reads it from the context it already receives.

// ridKey carries the request ID through a context chain.
type ridKey struct{}

// ridPrefix distinguishes processes: two servers minting IDs concurrently
// must not collide, so each process draws a random prefix at start.
var ridPrefix = func() string {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000"
	}
	return hex.EncodeToString(b[:])
}()

var ridCounter atomic.Uint64

// MintRequestID returns a new process-unique request ID, e.g.
// "9f2c41aa-000017".
func MintRequestID() string {
	return fmt.Sprintf("%s-%06x", ridPrefix, ridCounter.Add(1))
}

// WithRequestID returns a context carrying rid. An empty rid returns ctx
// unchanged.
func WithRequestID(ctx context.Context, rid string) context.Context {
	if rid == "" {
		return ctx
	}
	return context.WithValue(ctx, ridKey{}, rid)
}

// RequestID returns the request ID carried by ctx, or "".
func RequestID(ctx context.Context) string {
	if rid, ok := ctx.Value(ridKey{}).(string); ok {
		return rid
	}
	return ""
}
