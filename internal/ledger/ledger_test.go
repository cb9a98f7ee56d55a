package ledger

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"policyanon/internal/metrics"
)

// newTestLedger returns a ledger with the background timer disabled, so
// tests control sealing deterministically via Seal.
func newTestLedger(t *testing.T, anchor Anchor, opts Options) *Ledger {
	t.Helper()
	opts.FlushInterval = -1
	l, err := New(anchor, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { l.Close(context.Background()) })
	return l
}

func appendN(t *testing.T, l *Ledger, n int, kind Kind) []uint64 {
	t.Helper()
	seqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		seq, err := l.Append(context.Background(), kind, "bulkdp-binary", fmt.Sprintf("rid-%d", i),
			fmt.Sprintf(`{"i":%d}`, i))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		seqs[i] = seq
	}
	return seqs
}

func TestSealChainsBatches(t *testing.T) {
	anchor := NewMemAnchor()
	l := newTestLedger(t, anchor, Options{})
	appendN(t, l, 3, KindPolicyAudit)
	cp1, err := l.Seal(context.Background())
	if err != nil {
		t.Fatalf("seal 1: %v", err)
	}
	appendN(t, l, 5, KindRequestVerdict)
	cp2, err := l.Seal(context.Background())
	if err != nil {
		t.Fatalf("seal 2: %v", err)
	}
	if cp1.BatchSeq != 1 || cp2.BatchSeq != 2 {
		t.Fatalf("batch seqs = %d, %d; want 1, 2", cp1.BatchSeq, cp2.BatchSeq)
	}
	if cp1.FirstSeq != 1 || cp1.Count != 3 || cp2.FirstSeq != 4 || cp2.Count != 5 {
		t.Fatalf("ranges = [%d,+%d) [%d,+%d); want [1,+3) [4,+5)", cp1.FirstSeq, cp1.Count, cp2.FirstSeq, cp2.Count)
	}
	if cp2.PrevChainRoot != cp1.ChainRoot {
		t.Fatalf("batch 2 prev root %s != batch 1 root %s", cp2.PrevChainRoot, cp1.ChainRoot)
	}
	if err := cp1.Verify(); err != nil {
		t.Fatalf("cp1.Verify: %v", err)
	}
	if err := cp2.Verify(); err != nil {
		t.Fatalf("cp2.Verify: %v", err)
	}
	if got := len(anchor.Batches()); got != 2 {
		t.Fatalf("anchored %d batches, want 2", got)
	}
	st := l.Stats()
	if st.Events != 8 || st.Sealed != 8 || st.Pending != 0 || st.Batches != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ChainRoot != cp2.ChainRoot {
		t.Fatalf("stats root %s != latest %s", st.ChainRoot, cp2.ChainRoot)
	}
}

func TestSealEmptyIsNoop(t *testing.T) {
	l := newTestLedger(t, NewMemAnchor(), Options{})
	cp, err := l.Seal(context.Background())
	if err != nil || cp != nil {
		t.Fatalf("empty seal = %v, %v; want nil, nil", cp, err)
	}
	appendN(t, l, 1, KindBreach)
	first, err := l.Seal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	again, err := l.Seal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if again.ChainRoot != first.ChainRoot {
		t.Fatalf("no-op seal moved the chain: %s -> %s", first.ChainRoot, again.ChainRoot)
	}
}

func TestProveAndVerifyEverySize(t *testing.T) {
	// Batch sizes that exercise every merkle shape: single leaf, pair,
	// odd promotion, perfect tree, odd-at-multiple-levels.
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 13} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			l := newTestLedger(t, NewMemAnchor(), Options{})
			seqs := appendN(t, l, n, KindRequestVerdict)
			if _, err := l.Seal(context.Background()); err != nil {
				t.Fatal(err)
			}
			for _, seq := range seqs {
				p, err := l.Prove(context.Background(), seq)
				if err != nil {
					t.Fatalf("Prove(%d): %v", seq, err)
				}
				if err := p.Verify(); err != nil {
					t.Fatalf("Verify(%d): %v", seq, err)
				}
			}
		})
	}
}

func TestProofSurvivesJSONRoundTrip(t *testing.T) {
	// The proof must verify from its wire form alone — that is the whole
	// point of serving it over HTTP.
	l := newTestLedger(t, NewMemAnchor(), Options{})
	seqs := appendN(t, l, 5, KindBreach)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	p, err := l.Prove(context.Background(), seqs[2])
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Proof
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if err := decoded.Verify(); err != nil {
		t.Fatalf("round-tripped proof failed: %v", err)
	}
}

func TestProofDetectsMutation(t *testing.T) {
	l := newTestLedger(t, NewMemAnchor(), Options{})
	seqs := appendN(t, l, 6, KindRequestVerdict)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	fresh := func() *Proof {
		p, err := l.Prove(context.Background(), seqs[3])
		if err != nil {
			t.Fatal(err)
		}
		cp := *p
		cp.Path = append([]ProofStep(nil), p.Path...)
		return &cp
	}
	mutations := map[string]func(*Proof){
		"event detail": func(p *Proof) { p.Event.Detail = `{"i":999}` },
		"event kind":   func(p *Proof) { p.Event.Kind = KindBreach },
		"event rid":    func(p *Proof) { p.Event.RID = "forged" },
		"event seq":    func(p *Proof) { p.Event.Seq++; p.Seq++; p.Index++ },
		"leaf hash":    func(p *Proof) { p.LeafHash = flipHex(p.LeafHash) },
		"path sibling": func(p *Proof) { p.Path[0].Sibling = flipHex(p.Path[0].Sibling) },
		"path side":    func(p *Proof) { p.Path[0].Left = !p.Path[0].Left },
		"batch root":   func(p *Proof) { p.Checkpoint.BatchRoot = flipHex(p.Checkpoint.BatchRoot) },
		"chain root":   func(p *Proof) { p.Checkpoint.ChainRoot = flipHex(p.Checkpoint.ChainRoot) },
		"signature":    func(p *Proof) { p.Checkpoint.Signature = flipHex(p.Checkpoint.Signature) },
		"sealed time":  func(p *Proof) { p.Checkpoint.SealedMs++ },
	}
	for name, mutate := range mutations {
		p := fresh()
		if err := p.Verify(); err != nil {
			t.Fatalf("%s: baseline proof invalid: %v", name, err)
		}
		mutate(p)
		if err := p.Verify(); err == nil {
			t.Errorf("%s: mutated proof still verifies", name)
		}
	}
}

// flipHex flips one bit of a hex string's first byte.
func flipHex(s string) string {
	b := []byte(s)
	if b[0] == '0' {
		b[0] = '1'
	} else {
		b[0] = '0'
	}
	return string(b)
}

func TestProveErrors(t *testing.T) {
	l := newTestLedger(t, NewMemAnchor(), Options{Retain: 1})
	appendN(t, l, 2, KindPolicyAudit)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 2, KindPolicyAudit)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 1, KindPolicyAudit) // pending, seq 5

	if _, err := l.Prove(context.Background(), 1); !strings.Contains(fmt.Sprint(err), ErrEvicted.Error()) {
		t.Fatalf("evicted batch: got %v, want ErrEvicted", err)
	}
	if _, err := l.Prove(context.Background(), 3); err != nil {
		t.Fatalf("retained batch: %v", err)
	}
	if _, err := l.Prove(context.Background(), 5); !strings.Contains(fmt.Sprint(err), ErrPending.Error()) {
		t.Fatalf("pending event: got %v, want ErrPending", err)
	}
	if _, err := l.Prove(context.Background(), 99); !strings.Contains(fmt.Sprint(err), ErrUnknownSeq.Error()) {
		t.Fatalf("unknown seq: got %v, want ErrUnknownSeq", err)
	}
	if _, err := l.Prove(context.Background(), 0); !strings.Contains(fmt.Sprint(err), ErrUnknownSeq.Error()) {
		t.Fatalf("seq 0: got %v, want ErrUnknownSeq", err)
	}
}

func TestMaxBatchTriggersAsyncSeal(t *testing.T) {
	// With the timer disabled, filling MaxBatch must still seal via the
	// kick channel.
	anchor := NewMemAnchor()
	l, err := New(anchor, Options{MaxBatch: 4, FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(context.Background())
	for i := 0; i < 4; i++ {
		if _, err := l.Append(context.Background(), KindRequestVerdict, "e", "", ""); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(anchor.Batches()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch-full kick never sealed")
		}
		time.Sleep(time.Millisecond)
	}
	if got := anchor.Batches()[0].Checkpoint.Count; got != 4 {
		t.Fatalf("sealed %d events, want 4", got)
	}
}

func TestTimerFlush(t *testing.T) {
	anchor := NewMemAnchor()
	l, err := New(anchor, Options{FlushInterval: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close(context.Background())
	if _, err := l.Append(context.Background(), KindBreach, "e", "", ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(anchor.Batches()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("flush timer never sealed")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCloseSealsPendingAndRejectsAppends(t *testing.T) {
	anchor := NewMemAnchor()
	l, err := New(anchor, Options{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(context.Background(), KindPolicyAudit, "e", "", ""); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := len(anchor.Batches()); got != 1 {
		t.Fatalf("close sealed %d batches, want 1", got)
	}
	if _, err := l.Append(context.Background(), KindPolicyAudit, "e", "", ""); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := l.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := newTestLedger(t, NewMemAnchor(), Options{MaxBatch: 32})
	var wg sync.WaitGroup
	const goroutines, each = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append(context.Background(), KindRequestVerdict, "e", "", ""); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.Events != goroutines*each {
		t.Fatalf("events = %d, want %d", st.Events, goroutines*each)
	}
	if st.Pending != 0 {
		t.Fatalf("pending = %d after final seal", st.Pending)
	}
	// Every sealed event must be provable; spot-check across the range.
	for _, seq := range []uint64{1, goroutines * each / 2, goroutines * each} {
		p, err := l.Prove(context.Background(), seq)
		if err != nil {
			t.Fatalf("Prove(%d): %v", seq, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("Verify(%d): %v", seq, err)
		}
	}
}

func TestLedgerMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	anchor := NewMemAnchor()
	l := newTestLedger(t, anchor, Options{Registry: reg})
	appendN(t, l, 3, KindPolicyAudit)
	appendN(t, l, 2, KindBreach)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("ledger_events").Value(); got != 5 {
		t.Fatalf("ledger_events = %d, want 5", got)
	}
	if got := reg.Counter("ledger_events:" + string(KindBreach)).Value(); got != 2 {
		t.Fatalf("ledger_events:breach = %d, want 2", got)
	}
	if got := reg.Counter("ledger_batches").Value(); got != 1 {
		t.Fatalf("ledger_batches = %d, want 1", got)
	}
	if got := reg.Histogram("ledger_seal").Summary().Count; got != 1 {
		t.Fatalf("ledger_seal count = %d, want 1", got)
	}
	if got := reg.Gauge("ledger_queue_depth").Value(); got != 0 {
		t.Fatalf("ledger_queue_depth = %d, want 0", got)
	}
}

// --- file anchor ---

func TestFileAnchorRoundTripAndVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.log")
	anchor, err := OpenFileAnchor(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLedger(t, NewMemAnchorWrap(anchor), Options{})
	appendN(t, l, 4, KindPolicyAudit)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, KindBreach)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.Close(context.Background())
	anchor.Close()

	res, err := VerifyAnchorFile(path, nil)
	if err != nil {
		t.Fatalf("VerifyAnchorFile: %v", err)
	}
	if res.Batches != 2 || res.Events != 7 {
		t.Fatalf("verified %d batches / %d events, want 2 / 7", res.Batches, res.Events)
	}
	if res.ByKind[KindBreach] != 3 {
		t.Fatalf("breach events = %d, want 3", res.ByKind[KindBreach])
	}
	if len(res.PublicKeys) != 1 {
		t.Fatalf("keys = %v, want exactly one", res.PublicKeys)
	}
}

// NewMemAnchorWrap adapts a FileAnchor for newTestLedger cleanup order
// (it is just the anchor itself; the helper name documents intent).
func NewMemAnchorWrap(a Anchor) Anchor { return a }

func TestFileAnchorTamperDetection(t *testing.T) {
	// The acceptance test of the tamper-evident design: flip one byte in
	// the sealed anchor file, or drop one event, and verification fails.
	build := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "ledger.log")
		anchor, err := OpenFileAnchor(path, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		l := newTestLedger(t, anchor, Options{})
		appendN(t, l, 5, KindPolicyAudit)
		if _, err := l.Seal(context.Background()); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 5, KindBreach)
		if _, err := l.Seal(context.Background()); err != nil {
			t.Fatal(err)
		}
		l.Close(context.Background())
		anchor.Close()
		return path
	}

	t.Run("flip one byte", func(t *testing.T) {
		path := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte inside the first record's detail payload.
		i := strings.Index(string(data), `{\"i\":2}`)
		if i < 0 {
			i = len(data) / 4
		}
		data[i] ^= 0x01
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAnchorFile(path, nil); err == nil {
			t.Fatal("offline verifier accepted a flipped byte")
		}
		if _, err := OpenFileAnchor(path, nil, nil); err == nil {
			t.Fatal("writer recovery accepted a flipped byte")
		}
	})

	t.Run("drop one event", func(t *testing.T) {
		path := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		var b SealedBatch
		if err := json.Unmarshal([]byte(lines[0]), &b); err != nil {
			t.Fatal(err)
		}
		b.Events = b.Events[:len(b.Events)-1] // operator drops a record
		b.Checkpoint.Count = len(b.Events)    // even doctoring the count
		doctored, err := json.Marshal(&b)
		if err != nil {
			t.Fatal(err)
		}
		lines[0] = string(doctored) + "\n"
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAnchorFile(path, nil); err == nil {
			t.Fatal("offline verifier accepted a dropped event")
		}
	})

	t.Run("drop whole batch", func(t *testing.T) {
		path := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		// Excise the first batch entirely; the second batch's prev-chain
		// linkage must expose the hole.
		if err := os.WriteFile(path, []byte(strings.Join(lines[1:], "")), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAnchorFile(path, nil); err == nil {
			t.Fatal("offline verifier accepted an excised batch")
		}
	})

	t.Run("reorder events", func(t *testing.T) {
		path := build(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.SplitAfter(string(data), "\n")
		var b SealedBatch
		if err := json.Unmarshal([]byte(lines[0]), &b); err != nil {
			t.Fatal(err)
		}
		b.Events[0], b.Events[1] = b.Events[1], b.Events[0]
		doctored, err := json.Marshal(&b)
		if err != nil {
			t.Fatal(err)
		}
		lines[0] = string(doctored) + "\n"
		if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAnchorFile(path, nil); err == nil {
			t.Fatal("offline verifier accepted reordered events")
		}
	})
}

func TestFileAnchorCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.log")
	anchor, err := OpenFileAnchor(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := newTestLedger(t, anchor, Options{})
	appendN(t, l, 3, KindPolicyAudit)
	cp1, err := l.Seal(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3, KindPolicyAudit)
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.Close(context.Background())
	anchor.Close()

	// Simulate a crash mid-append: tear the second record in half.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	torn := lines[0] + lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, []byte(torn), 0o600); err != nil {
		t.Fatal(err)
	}

	// The strict offline verifier refuses the torn file...
	if _, err := VerifyAnchorFile(path, nil); err == nil {
		t.Fatal("offline verifier accepted a torn tail")
	}
	// ...but the writer recovers: truncate the tail, resume the chain.
	anchor2, err := OpenFileAnchor(path, nil, nil)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	last, ok := anchor2.Last()
	if !ok || last.BatchSeq != 1 {
		t.Fatalf("recovered head = %+v, %v; want batch 1", last, ok)
	}
	l2, err := New(anchor2, Options{FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	// The resumed ledger continues the sequence after the surviving batch.
	seq, err := l2.Append(context.Background(), KindBreach, "e", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if want := cp1.FirstSeq + uint64(cp1.Count); seq != want {
		t.Fatalf("resumed seq = %d, want %d", seq, want)
	}
	if _, err := l2.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	l2.Close(context.Background())
	anchor2.Close()

	// After recovery + new seals the file verifies end to end again.
	res, err := VerifyAnchorFile(path, nil)
	if err != nil {
		t.Fatalf("post-recovery verify: %v", err)
	}
	if res.Batches != 2 || res.Events != 4 {
		t.Fatalf("post-recovery = %d batches / %d events, want 2 / 4", res.Batches, res.Events)
	}
}

func TestChainResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.log")
	key, err := LoadOrCreateKey(filepath.Join(dir, "ledger.key"))
	if err != nil {
		t.Fatal(err)
	}

	anchor, err := OpenFileAnchor(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := New(anchor, Options{FlushInterval: -1, Key: key})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(context.Background(), KindPolicyAudit, "e", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.Close(context.Background())
	anchor.Close()

	// "Restart": same key file, same anchor file.
	key2, err := LoadOrCreateKey(filepath.Join(dir, "ledger.key"))
	if err != nil {
		t.Fatal(err)
	}
	if !key.Equal(key2) {
		t.Fatal("key did not persist across restart")
	}
	anchor2, err := OpenFileAnchor(path, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := New(anchor2, Options{FlushInterval: -1, Key: key2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Append(context.Background(), KindBreach, "e", "", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := l2.Seal(context.Background()); err != nil {
		t.Fatal(err)
	}
	l2.Close(context.Background())
	anchor2.Close()

	res, err := VerifyAnchorFile(path, ed25519.PrivateKey(key).Public().(ed25519.PublicKey))
	if err != nil {
		t.Fatalf("pinned verify: %v", err)
	}
	if res.Batches != 2 || res.Events != 2 {
		t.Fatalf("resumed chain = %d batches / %d events, want 2 / 2", res.Batches, res.Events)
	}
	if len(res.PublicKeys) != 1 {
		t.Fatalf("one persisted key must sign both runs, got %v", res.PublicKeys)
	}

	// Pinning a different key fails.
	otherPub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyAnchorFile(path, otherPub); err == nil {
		t.Fatal("verify accepted the wrong pinned key")
	}
}

func TestAnchorSealFailureKeepsEvents(t *testing.T) {
	fa := &failingAnchor{}
	l := newTestLedger(t, fa, Options{})
	appendN(t, l, 2, KindPolicyAudit)
	if _, err := l.Seal(context.Background()); err == nil {
		t.Fatal("seal with failing anchor succeeded")
	}
	if st := l.Stats(); st.Pending != 2 {
		t.Fatalf("pending = %d after failed seal, want 2 (events must not be lost)", st.Pending)
	}
	fa.ok = true
	cp, err := l.Seal(context.Background())
	if err != nil {
		t.Fatalf("retry seal: %v", err)
	}
	if cp.Count != 2 || cp.FirstSeq != 1 {
		t.Fatalf("retried checkpoint = %+v", cp)
	}
}

type failingAnchor struct {
	MemAnchor
	ok bool
}

func (a *failingAnchor) Seal(b *SealedBatch) error {
	if !a.ok {
		return fmt.Errorf("anchor unavailable")
	}
	return a.MemAnchor.Seal(b)
}
