package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"policyanon/internal/ledger"
)

// EnableLedger attaches a tamper-evident audit ledger: the privacy
// observatory starts appending every policy audit, sampled request
// verdict, and breach to it, motion snapshot swaps are recorded, and the
// /v1/audit/root and /v1/audit/proof endpoints come alive. nil detaches.
// The caller owns the ledger's lifecycle (Close it after the HTTP server
// drains, so the final batch seals).
func (s *Server) EnableLedger(l *ledger.Ledger) {
	s.led.Store(l)
	s.aud.SetLedger(l)
}

// handleAuditRoot serves the latest sealed checkpoint — the signed head
// of the ledger's Merkle hash chain. Auditors poll it to pin the chain;
// any later fork or rewrite of sealed history is detectable against a
// pinned root.
func (s *Server) handleAuditRoot(w http.ResponseWriter, r *http.Request) {
	l := s.led.Load()
	if l == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("audit ledger disabled (start with -ledger)"))
		return
	}
	cp, ok := l.Latest()
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Errorf("no batch sealed yet"))
		return
	}
	st := l.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"checkpoint": cp,
		"events":     st.Events,
		"pending":    st.Pending,
	})
}

// handleAuditProof serves the Merkle inclusion proof for one audit event
// by ledger sequence number. The proof verifies offline: leaf hash →
// audit path → batch root → signed chain root (ledger.Proof.Verify).
// Status codes distinguish the three ways a sequence can be unprovable:
// 404 unknown, 409 not yet sealed (retry after the flush interval), 410
// sealed but evicted from in-memory retention (replay the anchor file).
func (s *Server) handleAuditProof(w http.ResponseWriter, r *http.Request) {
	l := s.led.Load()
	if l == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("audit ledger disabled (start with -ledger)"))
		return
	}
	seqStr := r.URL.Query().Get("seq")
	if seqStr == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing seq parameter"))
		return
	}
	seq, err := strconv.ParseUint(seqStr, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad seq %q: %w", seqStr, err))
		return
	}
	proof, err := l.Prove(s.obsCtx(r), seq)
	switch {
	case errors.Is(err, ledger.ErrPending):
		httpError(w, http.StatusConflict, err)
		return
	case errors.Is(err, ledger.ErrEvicted):
		httpError(w, http.StatusGone, err)
		return
	case err != nil:
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, proof)
}
