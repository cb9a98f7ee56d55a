package history

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/location"
	"policyanon/internal/workload"
)

// recordEpochs simulates a few moving snapshots and appends each epoch.
func recordEpochs(t testing.TB, buf *bytes.Buffer, epochs int) (*location.DB, geo.Rect, int) {
	t.Helper()
	const (
		k    = 8
		side = int32(1 << 12)
	)
	rng := rand.New(rand.NewSource(5))
	db := location.New(600)
	for i := 0; i < 600; i++ {
		if err := db.Add(fmt.Sprintf("u%04d", i),
			geo.Point{X: rng.Int31n(side), Y: rng.Int31n(side)}); err != nil {
			t.Fatal(err)
		}
	}
	bounds := geo.NewRect(0, 0, side, side)
	hw := NewWriter(buf)
	for e := 0; e < epochs; e++ {
		anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: k})
		if err != nil {
			t.Fatal(err)
		}
		pol, err := anon.Policy()
		if err != nil {
			t.Fatal(err)
		}
		if err := hw.Append(k, bounds, pol); err != nil {
			t.Fatal(err)
		}
		workload.Apply(db, workload.PlanMoves(rng, db, 1.0, 300, side))
	}
	if hw.Epochs() != epochs {
		t.Fatalf("writer counted %d epochs", hw.Epochs())
	}
	return db, bounds, k
}

func TestHistoryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	recordEpochs(t, &buf, 4)
	states, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("replayed %d epochs, want 4", len(states))
	}
	for i, st := range states {
		if st.K != 8 || st.DB.Len() != 600 {
			t.Fatalf("epoch %d: k=%d users=%d", i, st.K, st.DB.Len())
		}
	}
	// Snapshots actually differ across epochs (users moved).
	same := 0
	for i := 0; i < states[0].DB.Len(); i++ {
		if states[0].DB.At(i).Loc == states[3].DB.At(i).Loc {
			same++
		}
	}
	if same == states[0].DB.Len() {
		t.Fatal("history recorded identical snapshots")
	}
}

func TestHistoryTruncationDetected(t *testing.T) {
	var buf bytes.Buffer
	recordEpochs(t, &buf, 2)
	blob := buf.Bytes()
	if _, err := ReadAll(bytes.NewReader(blob[:len(blob)-5])); err == nil {
		t.Fatal("truncated history accepted")
	}
	// Corruption inside an epoch is caught by the checkpoint checksum.
	bad := append([]byte(nil), blob...)
	bad[len(bad)/2] ^= 0xAA
	if _, err := ReadAll(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupted history accepted")
	}
}

func TestHistoryEmpty(t *testing.T) {
	states, err := ReadAll(bytes.NewReader(nil))
	if err != nil || len(states) != 0 {
		t.Fatalf("empty history: %v %v", states, err)
	}
	if _, err := ReplayTrajectory(nil, "u0001"); err == nil {
		t.Fatal("replay over empty history accepted")
	}
}

// Replaying the trajectory attack over stored history erodes anonymity
// exactly as the live attack does.
func TestReplayTrajectory(t *testing.T) {
	var buf bytes.Buffer
	recordEpochs(t, &buf, 5)
	states, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cands, err := ReplayTrajectory(states, "u0123")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("true sender lost from the intersection")
	}
	found := false
	for _, u := range cands {
		if u == "u0123" {
			found = true
		}
	}
	if !found {
		t.Fatalf("u0123 missing from its own trajectory candidates %v", cands)
	}
	// The composed set must be no larger than the first epoch's group.
	first := len(states[0].Policy.Groups())
	_ = first
	firstCloak, err := states[0].Policy.CloakOf("u0123")
	if err != nil {
		t.Fatal(err)
	}
	groupSize := 0
	for i := 0; i < states[0].DB.Len(); i++ {
		if states[0].Policy.CloakAt(i) == firstCloak {
			groupSize++
		}
	}
	if len(cands) > groupSize {
		t.Fatalf("composed %d exceeds first-epoch group %d", len(cands), groupSize)
	}
	// Unknown user errors.
	if _, err := ReplayTrajectory(states, "ghost"); err == nil {
		t.Fatal("unknown user accepted")
	}
}
