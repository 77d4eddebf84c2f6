package insidedropbox

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// goldenScale is the small population used by the equivalence tests.
var goldenScale = ScaleConfig{Campus1: 0.15, Campus2: 0.03, Home1: 0.01, Home2: 0.01}

// TestRunSelection exercises glob selection, option layering and result
// metadata.
func TestRunSelection(t *testing.T) {
	results, err := Run(context.Background(), Spec{Seed: 11},
		WithScale(goldenScale),
		WithExperiments("table2", "table3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ID != "table2" || results[1].ID != "table3" {
		t.Fatalf("selection produced %d results", len(results))
	}
	if len(results[0].Meta) == 0 || results[0].Meta[0].Key != "seed" {
		t.Fatalf("registry run missing provenance metadata: %+v", results[0].Meta)
	}

	if _, err := Run(context.Background(), Spec{}, WithExperiments("table99")); err == nil {
		t.Fatal("Run accepted a selection matching nothing")
	}

	// SkipPacket must not silently empty an explicit selection.
	if _, err := Run(context.Background(), Spec{SkipPacket: true},
		WithExperiments("figure9")); err == nil {
		t.Fatal("Run accepted a selection SkipPacket emptied")
	}
}

// TestRunManifestTimesEveryFold: Table 4's pair and the scenario stream
// run on the session's pool, so their shards reach Progress and the
// manifest's shard timings like every tally fold's; Table 4 keeps its one
// shard per population.
func TestRunManifestTimesEveryFold(t *testing.T) {
	scen, err := LoadScenario("scenarios/paper-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	shardEvents := map[string]int{}
	if _, err := Run(context.Background(), Spec{Seed: 3, Scale: goldenScale, Scenario: scen, Fleet: FleetConfig{Workers: 1}},
		WithExperiments("table4", "scenario/cohorts"),
		WithProgress(func(p Progress) {
			if p.ShardEvent() {
				shardEvents[p.ID+"/"+p.VP]++
			}
		}),
		WithResultsDir(dir)); err != nil {
		t.Fatal(err)
	}
	m, err := LoadRunManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	timed := map[string]int{}
	for _, sh := range m.Shards {
		timed[sh.Experiment+"/"+sh.VP]++
		if sh.Experiment == "table4" && sh.Shards != 1 {
			t.Fatalf("table4 ran %d shards per population, want 1", sh.Shards)
		}
	}
	for _, key := range []string{"table4/campus1", "table4/campus1-junjul", "scenario/cohorts/" + scen.Base.VP} {
		if timed[key] == 0 || shardEvents[key] == 0 {
			t.Fatalf("%s: %d shard timings, %d shard events; manifest has %+v", key, timed[key], shardEvents[key], m.Shards)
		}
	}
}

// TestScenarioOptInNeedsBackendForFlashCrowd: a spec opts scenario/cohorts
// into the default selection, and scenario/flash-crowd only when it has a
// backend section to replay, so a spec without one runs the default
// catalogue. Selected explicitly, scenario/flash-crowd still refuses it.
func TestScenarioOptInNeedsBackendForFlashCrowd(t *testing.T) {
	for file, flash := range map[string]bool{
		"scenarios/paper-baseline.json":     false,
		"scenarios/mobile-heavy.json":       false,
		"scenarios/flash-crowd-scarce.json": true,
		"scenarios/regional-outage.json":    true,
	} {
		scen, err := LoadScenario(file)
		if err != nil {
			t.Fatal(err)
		}
		_, sel, err := Spec{Scenario: scen}.resolve()
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		ids := map[string]bool{}
		for _, e := range sel {
			ids[e.ID] = true
		}
		if !ids["scenario/cohorts"] || ids["scenario/flash-crowd"] != flash {
			t.Errorf("%s: selection has scenario/cohorts %v and scenario/flash-crowd %v, want true and %v",
				file, ids["scenario/cohorts"], ids["scenario/flash-crowd"], flash)
		}
	}

	scen, err := LoadScenario("scenarios/paper-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Spec{Scenario: scen}, WithExperiments("scenario/flash-crowd"))
	if err == nil || !strings.Contains(err.Error(), `spec "paper-baseline" has no backend section`) {
		t.Fatalf("explicit scenario/flash-crowd on a spec without a backend section: err = %v", err)
	}
}

// TestScenarioResultRecordsItsOwnSeed: a scenario result runs the spec's
// base population, so its meta carries the base's seed, shards, vantage
// point and scale, each key once, and not the Run's Campus 1 scale,
// whatever seed, shard count and scale the Run was given.
func TestScenarioResultRecordsItsOwnSeed(t *testing.T) {
	scen, err := LoadScenario("scenarios/paper-baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	results, err := Run(context.Background(), Spec{Seed: 3, Scale: goldenScale, Scenario: scen,
		Fleet: FleetConfig{Shards: 2, Workers: 1}}, WithExperiments("scenario/cohorts"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]string{}
	for _, m := range results[0].Meta {
		got[m.Key] = append(got[m.Key], m.Value)
	}
	want := map[string][]string{"seed": {"7"}, "shards": {"4"}, "vp": {"home1"}, "scale": {"0.02"}, "scale_campus1": nil}
	for k, v := range want {
		if !slices.Equal(got[k], v) {
			t.Errorf("meta %s = %q, want %q (the spec base's, once)", k, got[k], v)
		}
	}
}

// TestRunProgressAndResultsDir checks the observer contract and the
// rendered output directory, including the meta section ordering and the
// run manifest.
func TestRunProgressAndResultsDir(t *testing.T) {
	dir := t.TempDir()
	var events []Progress
	_, err := Run(context.Background(), Spec{Seed: 3, Scale: goldenScale},
		WithExperiments("table3"),
		WithProgress(func(p Progress) { events = append(events, p) }),
		WithResultsDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	// The experiment-granularity contract: exactly one start and one
	// terminal event, in order, with shard events only in between.
	var exp []Progress
	for i, p := range events {
		if p.ShardEvent() {
			if i == 0 || i == len(events)-1 {
				t.Fatalf("shard event outside the experiment bracket: %+v", p)
			}
			if p.VP == "" || p.Records <= 0 || p.ShardsDone < 1 {
				t.Fatalf("malformed shard event: %+v", p)
			}
			continue
		}
		exp = append(exp, p)
	}
	if len(exp) != 2 || exp[0].Done || !exp[1].Done || exp[0].ID != "table3" {
		t.Fatalf("experiment events: %+v", exp)
	}
	if exp[0].Index != 1 || exp[0].Total != 1 {
		t.Fatalf("progress indexing: %+v", exp[0])
	}
	if exp[1].Err != nil || exp[1].Elapsed <= 0 {
		t.Fatalf("terminal event: %+v", exp[1])
	}
	// table3 generates all four vantage points, one shard each.
	if n := len(events) - len(exp); n != 4 {
		t.Fatalf("got %d shard events, want 4", n)
	}

	// Every ResultsDir run writes a validating manifest with shard
	// timings, experiment timings and a counter snapshot.
	m, err := LoadRunManifest(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	if m.Seed != 3 || len(m.Experiments) != 1 || m.Experiments[0].ID != "table3" {
		t.Fatalf("manifest experiments: %+v", m.Experiments)
	}
	if len(m.Shards) != 4 {
		t.Fatalf("manifest shard timings: %+v", m.Shards)
	}
	if m.Telemetry.Counters["fleet.records"] == 0 {
		t.Fatalf("manifest counter snapshot missing fleet.records: %+v", m.Telemetry.Counters)
	}
	if m.Spec["experiments"] != "table3" || m.Spec["seed"] != "3" {
		t.Fatalf("manifest spec: %+v", m.Spec)
	}
	body, err := os.ReadFile(filepath.Join(dir, "table3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	txt := string(body)
	metaAt := strings.Index(txt, "\nmeta:\n")
	metricsAt := strings.Index(txt, "\nmetrics:\n")
	if metaAt < 0 || metricsAt < 0 || metaAt > metricsAt {
		t.Fatalf("result file missing ordered meta/metrics sections:\n%s", txt)
	}
	if !strings.Contains(txt, "seed = 3") {
		t.Fatalf("meta section missing seed:\n%s", txt)
	}
}

// TestRunFailureEmitsTerminalEvent pins the failure-path observer
// contract: a failed experiment still emits its terminal Progress event,
// with Err set, so observers can't hang waiting for experiment N of M.
func TestRunFailureEmitsTerminalEvent(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var events []Progress
	_, err := Run(ctx, Spec{Seed: 5, Scale: goldenScale},
		WithExperiments("table1", "table2"),
		WithProgress(func(p Progress) {
			events = append(events, p)
			// Cancel as table2 starts, after Run's pre-experiment ctx
			// check: the experiment itself fails.
			if p.ID == "table2" && !p.ShardEvent() && !p.Done {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	last := events[len(events)-1]
	if !last.Done || last.ID != "table2" || last.Err == nil {
		t.Fatalf("missing terminal failure event: %+v", last)
	}
	if !errors.Is(last.Err, context.Canceled) {
		t.Fatalf("terminal event error = %v", last.Err)
	}
}

// TestRunCancelMidRun cancels deterministically after the first
// experiment completes; the next one must surface context.Canceled.
func TestRunCancelMidRun(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	results, err := Run(ctx, Spec{Seed: 5, Scale: goldenScale, Fleet: FleetConfig{Shards: 8}},
		WithExperiments("table1", "table2"),
		WithResultsDir(dir),
		WithProgress(func(p Progress) {
			if p.ID == "table1" && p.Done {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != 1 || results[0].ID != "table1" {
		t.Fatalf("partial results = %d", len(results))
	}
	// Completed results survive an interrupted run on disk.
	if _, statErr := os.Stat(filepath.Join(dir, "table1.txt")); statErr != nil {
		t.Fatalf("completed result not flushed after cancel: %v", statErr)
	}
}

// TestRecordsIteratorMatchesStreamDataset pins the facade iterator
// against the callback export, StreamRecords: same records, same order,
// and a clean round trip through WriteRecordStream.
func TestRecordsIteratorMatchesStreamDataset(t *testing.T) {
	cfg := Campus1(0.1)
	fc := FleetConfig{Shards: 2}

	var callbackBuf bytes.Buffer
	tw := mustCreateTrace(t, &callbackBuf, "csv")
	n := 0
	stats, err := StreamRecords(context.Background(), cfg, 3, fc, func(r *FlowRecord) bool {
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
		t.Fatalf("StreamRecords delivered %d records, stats say %d", n, stats.Records)
	}

	var iterBuf bytes.Buffer
	if err := WriteRecordStream(mustCreateTrace(t, &iterBuf, "csv"),
		Records(context.Background(), cfg, 3, fc)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(callbackBuf.Bytes(), iterBuf.Bytes()) {
		t.Fatal("iterator export diverged from the StreamRecords export")
	}
}

// mustCreateTrace is CreateTrace for a format name the test knows exists.
func mustCreateTrace(t *testing.T, w io.Writer, format string) RecordWriter {
	t.Helper()
	tw, err := CreateTrace(w, format)
	if err != nil {
		t.Fatal(err)
	}
	return tw
}

// TestTraceRoundTripEveryFormat: a stream written by CreateTrace in any
// format reads back through OpenTrace and ReadRecords as the records
// written, anonymized (client 0) and at the CSV columns' microsecond RTT
// resolution; OpenTrace needs no format name.
func TestTraceRoundTripEveryFormat(t *testing.T) {
	cfg, fc := Campus1(0.05), FleetConfig{Shards: 2}
	var want []FlowRecord
	for r, err := range Records(context.Background(), cfg, 5, fc) {
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, asRead(r))
	}
	if len(want) == 0 {
		t.Fatal("no records generated")
	}
	for _, format := range []string{"csv", "binary", "binary-flate"} {
		t.Run(format, func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteRecordStream(mustCreateTrace(t, &buf, format),
				Records(context.Background(), cfg, 5, fc)); err != nil {
				t.Fatal(err)
			}
			rd, err := OpenTrace(&buf)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			for r, err := range ReadRecords(rd) {
				if err != nil {
					t.Fatal(err)
				}
				if i >= len(want) {
					t.Fatalf("read more than the %d records written", len(want))
				}
				if got := asRead(r); !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want[i])
				}
				i++
			}
			if i != len(want) || !rd.Anonymized() {
				t.Fatalf("read %d of %d records, anonymized %v", i, len(want), rd.Anonymized())
			}
		})
	}
	if _, err := CreateTrace(io.Discard, "parquet"); err == nil {
		t.Fatal("CreateTrace accepted an unknown format")
	}
}

// asRead copies a record as every export format reads it back:
// client anonymized away, MinRTT at microseconds, no empty namespace list.
func asRead(r *FlowRecord) FlowRecord {
	c := *r
	c.Client = 0
	c.MinRTT = c.MinRTT.Truncate(time.Microsecond)
	c.NotifyNamespaces = slices.Clone(r.NotifyNamespaces)
	if len(c.NotifyNamespaces) == 0 {
		c.NotifyNamespaces = nil
	}
	return c
}

// TestExperimentCatalogueFacade: the facade re-exports resolve the same
// registry the internal package holds.
func TestExperimentCatalogueFacade(t *testing.T) {
	cat := Experiments()
	if len(cat) < 26 {
		t.Fatalf("catalogue too small: %d", len(cat))
	}
	if _, ok := ExperimentByID("whatif"); !ok {
		t.Fatal("whatif missing from facade catalogue")
	}
	sel, err := SelectExperiments("figure1?")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sel {
		if len(e.ID) != len("figure1")+1 || !strings.HasPrefix(e.ID, "figure1") {
			t.Fatalf("glob figure1? matched %q", e.ID)
		}
	}
	if len(sel) != 10 {
		t.Fatalf("figure1? matched %d experiments, want 10", len(sel))
	}
}
