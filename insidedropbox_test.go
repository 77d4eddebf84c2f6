package insidedropbox

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFacadeCampaignAndExperiments(t *testing.T) {
	ctx := context.Background()
	sc := ScaleConfig{Campus1: 0.2, Campus2: 0.04, Home1: 0.015, Home2: 0.015}
	ts, err := Fold(ctx, 9, sc, FleetConfig{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 || ts.ByName("home1").Flows() == 0 {
		t.Fatalf("tallies = %d", len(ts))
	}
	results, err := Run(ctx, Spec{Seed: 9, Scale: sc, SkipPacket: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < 20 {
		t.Fatalf("experiments = %d", len(results))
	}
	for _, r := range results {
		if r.ID == "" || r.Title == "" || r.Text == "" {
			t.Fatalf("incomplete result %+v", r.ID)
		}
	}
}

func TestFacadeSaveTraces(t *testing.T) {
	ds := GenerateDataset(Campus1(0.25), 5)
	var buf bytes.Buffer
	if err := SaveTraces(ds, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "vp,client,server") {
		t.Fatal("missing CSV header")
	}
	// Anonymized: no 10.x.y.z client addresses.
	for _, line := range strings.Split(out, "\n")[1:] {
		if strings.HasPrefix(line, "campus1,10.") {
			t.Fatal("client address not anonymized")
		}
	}
	if len(strings.Split(out, "\n")) < 100 {
		t.Fatal("suspiciously few trace rows")
	}
}

func TestFacadeWriteResults(t *testing.T) {
	dir := t.TempDir()
	results, err := Run(context.Background(),
		Spec{Seed: 11, Scale: ScaleConfig{Campus1: 0.15, Campus2: 0.03, Home1: 0.01, Home2: 0.01}},
		WithExperiments("table1", "table2", "table3"))
	if err != nil {
		t.Fatal(err)
	}
	if err := writeResults(dir, results); err != nil {
		t.Fatal(err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, "INDEX.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(idx), "table1") {
		t.Fatalf("index missing entries:\n%s", idx)
	}
	body, err := os.ReadFile(filepath.Join(dir, "table2.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "metrics:") {
		t.Fatal("result file missing metrics section")
	}
}

func TestFacadeFleet(t *testing.T) {
	// Streaming export matches the streamed stats and produces valid CSV.
	var buf bytes.Buffer
	tw := mustCreateTrace(t, &buf, "csv")
	n := 0
	stats, err := StreamRecords(context.Background(), Campus1(0.1), 3, FleetConfig{Shards: 2},
		func(r *FlowRecord) bool {
			n++
			return tw.Write(r) == nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n != stats.Records {
		t.Fatalf("streamed %d records, stats say %d", n, stats.Records)
	}
	if !strings.Contains(buf.String(), "vp,client,server") {
		t.Fatal("missing CSV header on streamed export")
	}
}

func TestFacadeTestbed(t *testing.T) {
	results, err := Run(context.Background(), Spec{Seed: 13}, WithExperiments("figure1", "figure19"))
	if err != nil {
		t.Fatal(err)
	}
	fig1, fig19 := results[0], results[1]
	if !strings.Contains(fig1.Text, "MsgCommitBatch") {
		t.Fatalf("testbed fig1 missing commit_batch:\n%s", fig1.Text)
	}
	if fig19.Metrics["captured_packets"] < 50 {
		t.Fatal("testbed captured too few packets")
	}
}
