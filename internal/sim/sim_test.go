package sim

import (
	"testing"
)

func TestRunJitterModel(t *testing.T) {
	rep, err := Run(Config{Users: 2000, K: 15, Snapshots: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Snapshots) != 5 {
		t.Fatalf("snapshots = %d", len(rep.Snapshots))
	}
	if rep.BreachedSnapshots != 0 {
		t.Fatalf("policy-aware anonymity breached in %d snapshots", rep.BreachedSnapshots)
	}
	for i, s := range rep.Snapshots {
		if s.PolicyCost <= 0 || s.AvgCloakArea <= 0 {
			t.Fatalf("snapshot %d: degenerate policy metrics %+v", i, s)
		}
		if s.ProviderTrips > s.Requests {
			t.Fatalf("snapshot %d: more provider trips (%d) than requests (%d)",
				i, s.ProviderTrips, s.Requests)
		}
		if s.Requests > 0 && s.MinAnonymity < 15 {
			t.Fatalf("snapshot %d: min anonymity %d below k", i, s.MinAnonymity)
		}
		if s.FrequencyLeaks != 0 {
			t.Fatalf("snapshot %d: cache failed, %d frequency leaks", i, s.FrequencyLeaks)
		}
		if i > 0 && s.RowsRecomputed == 0 {
			t.Fatalf("snapshot %d: movement recomputed no rows", i)
		}
	}
}

func TestRunRoadNetworkModel(t *testing.T) {
	rep, err := Run(Config{Users: 1500, K: 10, Snapshots: 4, RoadNetwork: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreachedSnapshots != 0 {
		t.Fatalf("breached %d snapshots", rep.BreachedSnapshots)
	}
	// Road-network movement keeps snapshots correlated, so incremental
	// maintenance should touch well under half of the ~|D|/k tree rows
	// per 10-second step.
	for i, s := range rep.Snapshots[1:] {
		if s.RowsRecomputed == 0 {
			t.Fatalf("step %d: no rows recomputed despite movement", i+1)
		}
	}
}

func TestRunValidation(t *testing.T) {
	cases := []Config{
		{Users: 0, K: 5},
		{Users: 100, K: 0},
		{Users: 3, K: 10},
	}
	for i, c := range cases {
		if _, err := Run(c); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

// TestRunDeterministic pins every movement model's per-snapshot policy
// and attack columns to recorded values, and checks that two runs with the
// same seed agree. Delta publication is bit-identical to a from-scratch
// publish, so how the policy is published must not move these numbers.
func TestRunDeterministic(t *testing.T) {
	type pin struct {
		cost                                  int64
		minAnon, leaks, requests, trips, rows int
	}
	cases := []struct {
		name string
		cfg  Config
		want []pin
	}{
		{"jitter", Config{Users: 800, K: 8, Snapshots: 3, Seed: 9}, []pin{
			{3014393856, 8, 0, 94, 81, 0},
			{3016491008, 8, 0, 75, 63, 64},
			{3018063872, 8, 0, 86, 81, 52},
		}},
		{"road-network", Config{Users: 800, K: 8, Snapshots: 3, Seed: 9, RoadNetwork: true}, []pin{
			{1327497667, 8, 0, 82, 71, 0},
			{2069561344, 8, 0, 80, 67, 528},
			{2154430464, 8, 0, 68, 61, 464},
		}},
		{"continuous", Config{Users: 800, K: 8, Snapshots: 3, Seed: 9, Continuous: true}, []pin{
			{3014393856, 8, 0, 94, 81, 0},
			{2995519488, 8, 0, 78, 70, 65},
			{2997878784, 8, 0, 76, 67, 79},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range a.Snapshots {
				got := pin{x.PolicyCost, x.MinAnonymity, x.FrequencyLeaks, x.Requests, x.ProviderTrips, x.RowsRecomputed}
				if got != tc.want[i] {
					t.Fatalf("snapshot %d: got %+v, want %+v", i, got, tc.want[i])
				}
				y := b.Snapshots[i]
				if x.PolicyCost != y.PolicyCost || x.Requests != y.Requests ||
					x.ProviderTrips != y.ProviderTrips || x.MinAnonymity != y.MinAnonymity {
					t.Fatalf("snapshot %d diverged between identical seeds:\n%+v\n%+v", i, x, y)
				}
				// After the first full publish, every model rides the chain.
				if i > 0 && (!x.Delta || x.CloaksChanged >= tc.cfg.Users) {
					t.Fatalf("snapshot %d: delta %v, %d cloaks changed", i, x.Delta, x.CloaksChanged)
				}
			}
		})
	}
}
