package experiments_test

import (
	"context"
	"reflect"
	"testing"

	"insidedropbox"
	"insidedropbox/internal/experiments"
)

// goldenScale is the small population used by the equivalence test.
var goldenScale = experiments.ScaleConfig{Campus1: 0.15, Campus2: 0.03, Home1: 0.01, Home2: 0.01}

// TestRunMatchesDirectCalls is the golden acceptance test of Run's
// registry and session wiring: Run with a full-catalogue selection must
// reproduce the exact bytes of the per-experiment drivers called directly
// — experiments.All over one campaign, Table4Context, RunPacketLabs with
// the quick configs, RunTestbed — result for result.
func TestRunMatchesDirectCalls(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the packet labs")
	}
	const seed = 9
	ctx := context.Background()
	spec := insidedropbox.Spec{Seed: seed, Scale: goldenScale, Quick: true}
	results, err := insidedropbox.Run(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	camp, err := insidedropbox.Fold(ctx, seed, goldenScale, insidedropbox.FleetConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	direct := map[string]*experiments.Result{}
	for _, r := range experiments.All(camp) {
		direct[r.ID] = r
	}
	if direct["table4"], err = experiments.Table4Context(ctx, seed, goldenScale.Campus1); err != nil {
		t.Fatal(err)
	}
	direct["figure9"], direct["figure10"], err = experiments.RunPacketLabs(ctx,
		experiments.QuickPacketLab(false), experiments.QuickPacketLab(true))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := experiments.RunTestbed(ctx, seed)
	if err != nil {
		t.Fatal(err)
	}
	direct["figure1"], direct["figure19"] = tb.Figure1, tb.Figure19

	if len(results) != len(direct) {
		t.Fatalf("Run produced %d results, the direct calls %d", len(results), len(direct))
	}
	for _, got := range results {
		want := direct[got.ID]
		if want == nil {
			t.Errorf("%s: not produced by the direct calls", got.ID)
			continue
		}
		if got.Text != want.Text {
			t.Errorf("%s: rendered text diverged from the direct call", got.ID)
		}
		if got.Title != want.Title {
			t.Errorf("%s: title %q != direct %q", got.ID, got.Title, want.Title)
		}
		if !reflect.DeepEqual(got.Metrics, want.Metrics) {
			t.Errorf("%s: metrics diverged from the direct call", got.ID)
		}
		// The registry's catalogue label must not drift from the title the
		// driver renders (they are maintained in two places).
		if e, ok := insidedropbox.ExperimentByID(got.ID); !ok || e.Title != got.Title {
			t.Errorf("%s: registry title %q != rendered title %q", got.ID, e.Title, got.Title)
		}
	}
}
