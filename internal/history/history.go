// Package history stores the sequence of (snapshot, policy) states over
// time. The paper's threat model assumes "the sequence of location
// databases is available to the attacker" (Section II-B); this package is
// that sequence made concrete: an append-only log of checkpoint-encoded
// epochs that can be written to any io.Writer, replayed from any
// io.Reader, and fed to the attacker tooling — e.g. replaying the
// trajectory-aware attack of a pinned user across stored epochs.
package history

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"

	"policyanon/internal/attacker"
	"policyanon/internal/checkpoint"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
)

// Writer appends epochs to an underlying stream.
type Writer struct {
	w      *bufio.Writer
	epochs int
}

// NewWriter wraps a destination stream.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Append records one epoch: the policy (and, via its Assignment, the
// snapshot) under anonymity level k.
func (hw *Writer) Append(k int, bounds geo.Rect, policy *lbs.Assignment) error {
	// Each epoch is a length-prefixed checkpoint blob; reusing the
	// checkpoint format buys the integrity check and safety revalidation.
	var blob bytes.Buffer
	if err := checkpoint.Save(&blob, &checkpoint.State{K: k, Bounds: bounds, Policy: policy}); err != nil {
		return fmt.Errorf("history: %w", err)
	}
	var hdr [8]byte
	putUint64(hdr[:], uint64(blob.Len()))
	if _, err := hw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("history: write header: %w", err)
	}
	if _, err := hw.w.Write(blob.Bytes()); err != nil {
		return fmt.Errorf("history: write epoch: %w", err)
	}
	hw.epochs++
	return hw.w.Flush()
}

// Epochs returns the number of epochs appended so far.
func (hw *Writer) Epochs() int { return hw.epochs }

// Reader iterates the epochs of a history stream.
type Reader struct {
	r *bufio.Reader
}

// NewReader wraps a history stream.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReader(r)} }

// Next returns the next stored epoch, or io.EOF at the end of history.
func (hr *Reader) Next() (*checkpoint.State, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(hr.r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("history: truncated epoch header: %w", err)
	}
	size := getUint64(hdr[:])
	const maxEpoch = 1 << 32
	if size > maxEpoch {
		return nil, fmt.Errorf("history: implausible epoch size %d", size)
	}
	// The declared size is trusted only as the bytes arrive: a header
	// claiming gigabytes over a short stream costs what the stream holds.
	blob, err := io.ReadAll(io.LimitReader(hr.r, int64(size)))
	if err == nil && uint64(len(blob)) != size {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("history: truncated epoch body: %w", err)
	}
	st, err := checkpoint.Load(bytes.NewReader(blob))
	if err != nil {
		return nil, fmt.Errorf("history: %w", err)
	}
	return st, nil
}

// ReadAll loads every epoch of a history stream.
func ReadAll(r io.Reader) ([]*checkpoint.State, error) {
	hr := NewReader(r)
	var out []*checkpoint.State
	for {
		st, err := hr.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, st)
	}
}

// ReplayTrajectory reconstructs the trajectory-aware attack over stored
// history for a pinned user: for each epoch where the user exists, the
// observation pairs that epoch's policy with the user's cloak. The
// returned candidate list is the attacker's final intersected set.
func ReplayTrajectory(states []*checkpoint.State, userID string) ([]string, error) {
	var series []attacker.TrajectoryObservation
	for i, st := range states {
		cloak, err := st.Policy.CloakOf(userID)
		if err != nil {
			return nil, fmt.Errorf("history: epoch %d: user %q absent", i, userID)
		}
		series = append(series, attacker.TrajectoryObservation{
			Policy: st.Policy, Cloak: cloak, Aware: attacker.PolicyAware,
		})
	}
	if len(series) == 0 {
		return nil, fmt.Errorf("history: empty history")
	}
	return attacker.TrajectoryCandidates(series), nil
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

func getUint64(b []byte) uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b[i])
	}
	return v
}
