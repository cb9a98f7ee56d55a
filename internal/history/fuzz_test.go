package history

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// TestNextBoundedByStream holds an epoch header that declares 3 GiB over a
// stream of a few bytes to what the stream holds: Next fails as truncated
// and allocates well under 1 MiB on the way.
func TestNextBoundedByStream(t *testing.T) {
	var stream bytes.Buffer
	var hdr [8]byte
	putUint64(hdr[:], 3<<30)
	stream.Write(hdr[:])
	stream.WriteString("PANONCK1 and nothing more")
	size := stream.Len()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewReader(&stream).Next()
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Next = %v, want a truncated-body error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("Next allocated %d B for a %d-byte stream", got, size)
	}
}

// FuzzReadAll ensures arbitrary byte streams never panic the history
// reader or make it allocate what a header declares before the bytes
// arrive, and that every epoch it accepts satisfies the checkpoint
// loader's safety invariants (masking + declared k-anonymity).
func FuzzReadAll(f *testing.F) {
	var buf bytes.Buffer
	recordEpochs(f, &buf, 2)
	good := buf.Bytes()
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:8])
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0x50, 0, 0, 0, 'P', 'A', 'N', 'O', 'N'})
	flipped := append([]byte(nil), good...)
	flipped[30] ^= 0x55
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, blob []byte) {
		states, err := ReadAll(bytes.NewReader(blob))
		if err != nil {
			return
		}
		for e, st := range states {
			if st.K < 1 {
				t.Fatalf("epoch %d: accepted state with k=%d", e, st.K)
			}
			for i := 0; i < st.DB.Len(); i++ {
				if !st.Policy.CloakAt(i).ContainsClosed(st.DB.At(i).Loc) {
					t.Fatalf("epoch %d: accepted non-masking policy", e)
				}
			}
			for _, g := range st.Policy.Groups() {
				if len(g.Members) < st.K {
					t.Fatalf("epoch %d: accepted policy with group of %d < k=%d", e, len(g.Members), st.K)
				}
			}
		}
	})
}
