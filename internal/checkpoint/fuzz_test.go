package checkpoint

import (
	"bytes"
	"math/rand"
	"testing"

	"policyanon/internal/core"
	"policyanon/internal/geo"
	"policyanon/internal/location"
)

// FuzzLoad ensures arbitrary byte streams never panic the loader and that
// anything it accepts satisfies the safety invariants (masking + declared
// k-anonymity), i.e. corruption can damage availability but never safety.
func FuzzLoad(f *testing.F) {
	// Seed with a valid checkpoint and a few mutations of it.
	rng := rand.New(rand.NewSource(1))
	db := location.New(12)
	for i := 0; i < 12; i++ {
		if err := db.Add(userID(i), geo.Point{X: rng.Int31n(64), Y: rng.Int31n(64)}); err != nil {
			f.Fatal(err)
		}
	}
	bounds := geo.NewRect(0, 0, 64, 64)
	anon, err := core.NewAnonymizer(db, bounds, core.AnonymizerOptions{K: 3})
	if err != nil {
		f.Fatal(err)
	}
	pol, err := anon.Policy()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, &State{K: 3, Bounds: bounds, Policy: pol}); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte("PANONCK1garbage"))
	flipped := append([]byte(nil), good...)
	flipped[20] ^= 0x55
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := Load(bytes.NewReader(blob))
		if err != nil {
			return
		}
		// Anything accepted must be safe.
		if st.K < 1 {
			t.Fatalf("accepted state with k=%d", st.K)
		}
		for i := 0; i < st.DB.Len(); i++ {
			if !st.Policy.CloakAt(i).ContainsClosed(st.DB.At(i).Loc) {
				t.Fatal("accepted non-masking policy")
			}
		}
		for _, g := range st.Policy.Groups() {
			if st.DB.Len() > 0 && len(g.Members) < st.K {
				t.Fatalf("accepted policy with group of %d < k=%d", len(g.Members), st.K)
			}
		}
	})
}
