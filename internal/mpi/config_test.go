package mpi

// White-box tests for Config.normalize: every validation branch and every
// default derivation.

import (
	"testing"
	"time"

	"hydee/internal/failure"
	"hydee/internal/netmodel"
	"hydee/internal/rollback"
)

func TestNormalizeRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"zero NP", Config{NP: 0}},
		{"negative NP", Config{NP: -4}},
		{"negative CheckpointEvery", Config{NP: 2, CheckpointEvery: -1}},
		{"negative MaxRounds", Config{NP: 2, MaxRounds: -3}},
		{"negative Watchdog", Config{NP: 2, Watchdog: -time.Second}},
		{"topology/NP mismatch", Config{NP: 3, Topo: rollback.SingleCluster(2)}},
		{"invalid topology", Config{NP: 2, Topo: rollback.NewTopology([]int{0, 2})}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			if err := cfg.normalize(); err == nil {
				t.Fatalf("normalize accepted %+v", tc.cfg)
			}
			// The exported wrapper must agree.
			if err := Validate(tc.cfg); err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			}
		})
	}
}

func TestNormalizeAppliesDefaults(t *testing.T) {
	cfg := Config{NP: 4}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.Model == nil || cfg.Model.Name() != netmodel.Myrinet10G().Name() {
		t.Errorf("Model default: %+v", cfg.Model)
	}
	if cfg.Topo == nil || cfg.Topo.NP != 4 || cfg.Topo.K() != 1 {
		t.Errorf("Topo default: %+v", cfg.Topo)
	}
	if cfg.Protocol == nil || cfg.Protocol.Name() != "native" {
		t.Errorf("Protocol default: %v", cfg.Protocol)
	}
	if cfg.Store == nil {
		t.Error("Store default missing")
	}
	if cfg.MaxRounds != 2 {
		t.Errorf("MaxRounds default without failures: %d", cfg.MaxRounds)
	}
	if cfg.watchdog() != 60*time.Second {
		t.Errorf("watchdog default: %v", cfg.watchdog())
	}
}

func TestNormalizeDerivesMaxRoundsFromSchedule(t *testing.T) {
	cfg := Config{NP: 4, Failures: failure.NewSchedule(
		failure.Event{Ranks: []int{1}, When: failure.Trigger{AfterSends: 1}},
		failure.Event{Ranks: []int{2}, When: failure.Trigger{AfterSends: 2}},
		failure.Event{Ranks: []int{3}, When: failure.Trigger{AfterSends: 3}},
	)}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxRounds != 5 {
		t.Errorf("MaxRounds = %d, want len(events)+2 = 5", cfg.MaxRounds)
	}

	// An explicit positive MaxRounds is kept as-is.
	cfg = Config{NP: 4, MaxRounds: 9}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	if cfg.MaxRounds != 9 {
		t.Errorf("MaxRounds = %d, want explicit 9", cfg.MaxRounds)
	}
}

func TestValidateDoesNotMutate(t *testing.T) {
	cfg := Config{NP: 4}
	if err := Validate(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Model != nil || cfg.Topo != nil || cfg.Protocol != nil || cfg.Store != nil || cfg.MaxRounds != 0 {
		t.Errorf("Validate mutated its argument: %+v", cfg)
	}
}
