package engine_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"policyanon/internal/engine"
	"policyanon/internal/geo"
	"policyanon/internal/lbs"
	"policyanon/internal/location"
)

// noop is a trivially valid engine body for registry plumbing tests.
func noop(ctx context.Context, db *location.DB, bounds geo.Rect, p engine.Params) (*lbs.Assignment, error) {
	return nil, errors.New("noop")
}

func TestParamsEffectiveK(t *testing.T) {
	if got := (engine.Params{K: 7}).EffectiveK(); got != 7 {
		t.Errorf("EffectiveK = %d, want 7", got)
	}
	if got := (engine.Params{K: 7, Ks: []int{9, 3, 5}}).EffectiveK(); got != 3 {
		t.Errorf("EffectiveK with Ks = %d, want min 3", got)
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (engine.Params{K: 0}).Validate(); err == nil {
		t.Error("k=0 validated")
	}
	if err := (engine.Params{K: 1}).Validate(); err != nil {
		t.Errorf("k=1 rejected: %v", err)
	}
	if err := (engine.Params{Ks: []int{2, 0}}).Validate(); err == nil {
		t.Error("ks containing 0 validated")
	}
	if err := (engine.Params{Ks: []int{2, 3}}).Validate(); err != nil {
		t.Errorf("valid ks rejected: %v", err)
	}
}

func TestRegistryRegisterErrors(t *testing.T) {
	r := engine.NewRegistry()
	e := engine.New("good", noop)
	if err := r.Register(engine.Info{Name: ""}, e); err == nil {
		t.Error("empty name registered")
	}
	if err := r.Register(engine.Info{Name: "good"}, nil); err == nil {
		t.Error("nil engine registered")
	}
	if err := r.Register(engine.Info{Name: "other"}, e); err == nil {
		t.Error("info/engine name mismatch registered")
	}
	if err := r.Register(engine.Info{Name: "good"}, e); err != nil {
		t.Fatalf("valid registration failed: %v", err)
	}
	if err := r.Register(engine.Info{Name: "good"}, e); err == nil {
		t.Error("duplicate registration accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustRegister did not panic on duplicate")
		}
	}()
	r.MustRegister(engine.Info{Name: "good"}, e)
}

func TestRegistryGetUnknown(t *testing.T) {
	r := engine.NewRegistry()
	r.MustRegister(engine.Info{Name: "only"}, engine.New("only", noop))
	_, err := r.Get("nope")
	if !errors.Is(err, engine.ErrUnknownEngine) {
		t.Fatalf("error %v does not wrap ErrUnknownEngine", err)
	}
	if !strings.Contains(err.Error(), "only") {
		t.Errorf("error %q does not list registered names", err)
	}
}

func TestRegistryNamesAndInfosSorted(t *testing.T) {
	r := engine.NewRegistry()
	for _, n := range []string{"zeta", "alpha", "mid"} {
		r.MustRegister(engine.Info{Name: n}, engine.New(n, noop))
	}
	names := r.Names()
	want := []string{"alpha", "mid", "zeta"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("Names() = %v, want %v", names, want)
		}
	}
	infos := r.Infos()
	for i, n := range want {
		if infos[i].Name != n {
			t.Fatalf("Infos() order %v broken at %d", infos, i)
		}
	}
}

// The default registry must hold the full built-in taxonomy with honest
// capability flags: the paper's safe engines are PolicyAware, the k-inside
// prior art is not, and only bulkdp-binary supports incremental serving.
func TestDefaultRegistryTaxonomy(t *testing.T) {
	wantAware := map[string]bool{
		"bulkdp-binary": true,
		"bulkdp-quad":   true,
		"bulkdp-naive":  true,
		"adaptive":      true,
		"multik":        true,
		"hilbert":       true,
		"casper":        false,
		"pub":           false,
		"puq":           false,
		"mbc":           false,
	}
	for name, aware := range wantAware {
		info, ok := engine.InfoOf(name)
		if !ok {
			t.Errorf("built-in engine %q not registered", name)
			continue
		}
		if info.PolicyAware != aware {
			t.Errorf("%s: PolicyAware = %t, want %t", name, info.PolicyAware, aware)
		}
		if info.Incremental != (name == engine.DefaultName) {
			t.Errorf("%s: Incremental = %t", name, info.Incremental)
		}
		if info.DeltaIncremental != (name == engine.DefaultName) {
			t.Errorf("%s: DeltaIncremental = %t", name, info.DeltaIncremental)
		}
		if info.DeltaIncremental && !info.Incremental {
			t.Errorf("%s: DeltaIncremental without Incremental", name)
		}
		e, err := engine.Get(name)
		if err != nil {
			t.Errorf("Get(%q): %v", name, err)
		} else if e.Name() != name {
			t.Errorf("Get(%q).Name() = %q", name, e.Name())
		}
	}
	if _, ok := engine.InfoOf(engine.DefaultName); !ok {
		t.Fatalf("DefaultName %q is not registered", engine.DefaultName)
	}
}
