package experiments

import (
	"context"
	"errors"
	"testing"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/fleet"
)

// TestRegistryCatalogueComplete pins the catalogue contract: every table,
// figure and lab of the paper is registered exactly once under its ID.
func TestRegistryCatalogueComplete(t *testing.T) {
	want := []string{
		"table1", "table2", "table3", "table4", "table5",
		"figure1", "figure2", "figure3", "figure4", "figure5", "figure6",
		"figure7", "figure8", "figure9", "figure10", "figure11", "figure12",
		"figure13", "figure14", "figure15", "figure16", "figure17",
		"figure18", "figure19", "figure20", "figure21",
		"fleet", "whatif",
		"backend/baseline", "backend/saturation", "backend/policies",
		"scenario/cohorts", "scenario/flash-crowd",
	}
	cat := Experiments()
	seen := map[string]bool{}
	for _, e := range cat {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Run == nil {
			t.Errorf("experiment %q incomplete (title %q, run nil=%v)", e.ID, e.Title, e.Run == nil)
		}
	}
	for _, id := range want {
		if !seen[id] {
			t.Errorf("catalogue missing %q", id)
		}
	}
	if len(cat) != len(want) {
		t.Errorf("catalogue has %d experiments, want %d", len(cat), len(want))
	}
}

func TestRegistryByID(t *testing.T) {
	e, ok := ByID("figure9")
	if !ok || e.ID != "figure9" || !e.Needs.Packet {
		t.Fatalf("ByID(figure9) = %+v, %v", e, ok)
	}
	if _, ok := ByID("figure99"); ok {
		t.Fatal("ByID accepted an unknown id")
	}
}

func TestSelectDefaultsAndGlobs(t *testing.T) {
	// Default selection: everything except the opt-in labs.
	def, err := Select()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range def {
		if e.Needs.OptIn {
			t.Errorf("default selection includes opt-in %q", e.ID)
		}
	}
	if len(def) != len(Experiments())-7 {
		t.Errorf("default selection has %d entries, want all but fleet+whatif+backend/*+scenario/* (%d)",
			len(def), len(Experiments())-7)
	}

	// Globs match in catalogue order, opt-ins included when named.
	sel, err := Select("table*", "whatif")
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(sel))
	for i, e := range sel {
		ids[i] = e.ID
	}
	wantIDs := []string{"table1", "table2", "table3", "table4", "table5", "whatif"}
	if len(ids) != len(wantIDs) {
		t.Fatalf("Select(table*, whatif) = %v, want %v", ids, wantIDs)
	}
	for i := range ids {
		if ids[i] != wantIDs[i] {
			t.Fatalf("Select(table*, whatif) = %v, want %v", ids, wantIDs)
		}
	}

	// Overlapping patterns don't duplicate.
	sel, err = Select("table4", "table*")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 5 {
		t.Fatalf("overlapping patterns duplicated entries: %d", len(sel))
	}

	// Unknown patterns are an error, not a silent no-op.
	if _, err := Select("table9"); err == nil {
		t.Fatal("Select accepted a pattern matching nothing")
	}
}

// TestSessionSharesCampaign pins the memoization contract: every
// experiment rendering from the tallies in a session sees the same ones.
func TestSessionSharesCampaign(t *testing.T) {
	s := &Session{Seed: 2012, Scale: ScaleConfig{Campus1: 0.1, Campus2: 0.02, Home1: 0.01, Home2: 0.01},
		Fleet: fleet.Config{Shards: 1}}
	ctx := context.Background()
	t1, err := s.Tallies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := s.Tallies(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if t1[0] != t2[0] {
		t.Fatal("session folded the vantage points twice")
	}

	e, _ := ByID("table2")
	r, err := e.Run(ctx, s)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "table2" || r.Text == "" {
		t.Fatalf("registry run produced incomplete result %+v", r.ID)
	}
}

// TestSessionRetriesAfterCancelledBuild: a session whose shared input
// build was aborted by a cancelled context must retry (not latch the
// error) on the next call.
func TestSessionRetriesAfterCancelledBuild(t *testing.T) {
	s := &Session{Seed: 1, Scale: ScaleConfig{Campus1: 0.1, Campus2: 0.02, Home1: 0.01, Home2: 0.01}}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Tallies(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled build: err = %v", err)
	}
	ts, err := s.Tallies(context.Background())
	if err != nil || ts == nil {
		t.Fatalf("session latched the cancelled build: tallies=%v err=%v", ts, err)
	}
}

// TestCancelNewCampaign: a cancelled context aborts the four vantage
// points' fold with ctx.Err().
func TestCancelNewCampaign(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ts, err := Fold(ctx, 1, SmallScale(), fleet.Config{Shards: 4})
	if !errors.Is(err, context.Canceled) || ts != nil {
		t.Fatalf("Fold under cancelled ctx: tallies=%v err=%v", ts, err)
	}
}

// TestCancelPacketLab: the packet lab must notice cancellation at its
// simulation-slice boundaries and return ctx.Err() promptly.
func TestCancelPacketLab(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	recs, err := RunPacketLab(ctx, QuickPacketLab(false))
	if !errors.Is(err, context.Canceled) || recs != nil {
		t.Fatalf("RunPacketLab under cancelled ctx: recs=%d err=%v", len(recs), err)
	}
}

// TestCancelTestbed: same contract for the protocol dissection.
func TestCancelTestbed(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tb, err := RunTestbed(ctx, 7)
	if !errors.Is(err, context.Canceled) || tb != nil {
		t.Fatalf("RunTestbed under cancelled ctx: tb=%v err=%v", tb, err)
	}
}

// TestCancelWhatIf: profile replays abort at fleet-shard granularity.
func TestCancelWhatIf(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := WhatIfConfig{
		Seed: 1, VP: whatIfVP(0.1), Fleet: fleet.Config{Shards: 2},
		Profiles: []capability.Profile{capability.DropboxV1252()},
	}.Run(ctx)
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("what-if under cancelled ctx: rep=%v err=%v", rep, err)
	}
}

// TestCancelRunFleet: the streaming campaign surfaces ctx.Err().
func TestCancelRunFleet(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := RunFleet(ctx, 1, SmallScale(), fleet.Config{Shards: 2})
	if !errors.Is(err, context.Canceled) || rep != nil {
		t.Fatalf("RunFleet under cancelled ctx: rep=%v err=%v", rep, err)
	}
}

// TestResultMeta: ordered metadata renders in insertion order and legacy
// results carry none.
func TestResultMeta(t *testing.T) {
	r := newResult("x", "X")
	if len(r.Meta) != 0 {
		t.Fatal("fresh result carries metadata")
	}
	r.AddMeta("seed", "2012")
	r.AddMeta("shards", "8")
	if r.Meta[0].Key != "seed" || r.Meta[1].Key != "shards" {
		t.Fatalf("metadata order not preserved: %+v", r.Meta)
	}
}
