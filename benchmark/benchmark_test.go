package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// measuredLayers lists, per workload, the per-layer metrics its traced run
// must actually measure. Every workload prints every name; the ones not
// listed here read 0 because the layer does no work there.
var measuredLayers = map[string][]string{
	"export-binary": {
		"workload.generate_ns_per_rec", "workload.generate_allocs_per_rec", "flowmodel.synthesize_ns_per_flow",
		"fleet.handoff_ns_per_rec", "fleet.shard_skew",
		"traces.encode_binary_ns_per_rec", "file.write_ns_per_rec",
	},
	"export-flate": {
		"workload.generate_ns_per_rec", "fleet.handoff_ns_per_rec", "traces.encode_binary_ns_per_rec",
		"traces.encode_flate_ns_per_rec", "traces.compress_ns_per_rec", "traces.flate_ratio", "file.write_ns_per_rec",
	},
	"summarize": {
		"fleet.run_shard_ns_per_rec", "fleet.run_shard_allocs_per_rec", "fleet.aggregate_ns_per_rec",
		"flowmodel.synthesize_ns_per_flow", "fleet.pool_hit_ratio", "fleet.shard_skew",
	},
	"campaign": {
		"campaign.generate_phase_ns_per_rec", "campaign.merge_phase_ns_per_rec", "campaign.write_amplification",
		"campaign.checkpoints_written", "campaign.overhead_x", "fleet.pool_hit_ratio",
	},
	"scenario-backend": {
		"scenario.compile_ms", "scenario.collect_ns_per_rec", "scenario.collect_allocs_per_rec", "scenario.collect_heap_mb",
		"backend.sort_ns_per_req", "backend.scale_load_ns_per_req", "backend.simulate_ns_per_event",
		"backend.simulate_allocs_per_event", "traces.encode_csv_ns_per_rec",
	},
	"read-archive": {
		"traces.decode_binary_ns_per_rec", "traces.decode_binary_allocs_per_rec", "traces.decode_flate_ns_per_rec",
		"traces.decode_flate_allocs_per_rec", "traces.seek_flate_us_per_seek", "traces.flate_ratio",
	},
	"read-csv": {
		"traces.decode_csv_ns_per_rec", "traces.decode_csv_allocs_per_rec", "traces.encode_csv_ns_per_rec",
	},
	"paper-repro": {"experiments.packet_labs_s", "experiments.population_s"},
}

// budgetLayers are the per-layer metrics measured on every workload.
var budgetLayers = []string{
	"process.peak_rss_mb", "budget.composed_1p_ns_per_unit", "budget.unattributed_ns_per_unit", "budget.unattributed_share",
	"budget.scaling_x", "budget.trace_overhead_ratio",
}

func TestCatalogueWithinContract(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(workloadDefs) < 2 || len(workloadDefs) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Fatalf("%d workloads, %d end-to-end and %d per-layer metrics exceed 8/16/128",
			len(workloadDefs), len(endToEnd), len(perLayer))
	}
	seen := make(map[string]bool)
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadDefs {
		use(w.name)
		if w.why == "" || len(w.why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
		if _, ok := measuredLayers[w.name]; !ok {
			t.Errorf("workload %s has no measured-layer list in this test", w.name)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		use(d.name)
		if !unit.MatchString(d.unit) {
			t.Errorf("metric %s: unit %q is outside the contract's alphabet", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %s: better is %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %g is outside (0, 0.25]", d.name, d.bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("the contract requires an end-to-end metric named setup_s")
	}
}

func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(doc.Workloads), len(workloadDefs))
	}
	for i, w := range workloadDefs {
		if got := doc.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("BENCHMARK.json has %d %s metrics, the code %d", len(got), kind, len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the code %s [%s, %s]",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the code's %g", kind, d.name, d.bound)
			}
		}
	}
	compare("end-to-end", doc.EndToEnd, endToEnd, true)
	compare("per-layer", doc.PerLayer, perLayer, false)
}

// testSeed draws tiny populations without one of the generator's 77,000-
// record clients, which seed 2012 has and which alone would take seconds.
const testSeed = 7

// TestEveryWorkloadEmitsEveryMetric runs each workload's measured and
// traced pass at tiny scale.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	for _, wd := range workloadDefs {
		t.Run(wd.name, func(t *testing.T) {
			w, err := newRunner(wd.name, testSeed, tinySizes, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			res, err := runMeasured(wd.name, w, tinySizes, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("measured run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("measured run printed %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || !(v.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", d.name, v, d.unit)
				}
			}

			outDir := t.TempDir()
			res, err = runTraced(wd.name, w, tinySizes, 0, outDir)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Errorf("traced run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run printed %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, d := range perLayer {
				if v, ok := res.Metrics[d.name]; !ok || v.Unit != d.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("per-layer metric %s = %+v, want a finite value in %s", d.name, v, d.unit)
				}
			}
			for _, name := range append(append([]string(nil), measuredLayers[wd.name]...), budgetLayers...) {
				if res.Metrics[name].Value == 0 {
					t.Errorf("per-layer metric %s reads 0; %s should measure it", name, wd.name)
				}
			}
			composed := res.Metrics["budget.composed_1p_ns_per_unit"].Value
			unattributed := res.Metrics["budget.unattributed_ns_per_unit"].Value
			if share := res.Metrics["budget.unattributed_share"].Value; math.Abs(share*composed-unattributed) > 1e-6*composed {
				t.Errorf("unattributed %g is not share %g of composed %g", unattributed, share, composed)
			}
			var spans []span
			data, err := os.ReadFile(filepath.Join(outDir, "trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
				t.Fatalf("trace.json: %d spans, %v", len(spans), err)
			}
			for _, s := range spans {
				if s.Workload != wd.name || s.EndNS < s.StartNS || s.Parent >= s.ID {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}

func TestBudgetIdentity(t *testing.T) {
	b := budget{
		rows:     []budgetRow{{"generate", 400}, {"handoff", 60.5}, {"encode", 262.25}},
		composed: 700,
	}
	if got := b.sum() + b.unattributed(); got != b.composed {
		t.Errorf("layers %g + unattributed %g = %g, want composed %g", b.sum(), b.unattributed(), got, b.composed)
	}
	// A negative difference is reported as measured, not clamped.
	b.composed = 700.5
	if got := b.unattributed(); got != -22.25 {
		t.Errorf("unattributed = %g, want -22.25", got)
	}
}

// TestCorruptInputFails flips one byte of a set-up file — a digit of the
// first row's bytes_up column, which the lenient CSV reader still parses —
// and expects the repetition's verification to notice.
func TestCorruptInputFails(t *testing.T) {
	w := &csvRunner{dir: t.TempDir(), seed: testSeed, sz: tinySizes}
	if err := w.prepare(0, 1); err != nil {
		t.Fatal(err)
	}
	out, err := w.rep(&repCtx{m: &meter{}})
	if err != nil || out.failed != 0 || out.checks == 0 {
		t.Fatalf("clean input: %d of %d checks failed, err %v", out.failed, out.checks, err)
	}

	data, err := os.ReadFile(w.csv[0].path)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.IndexByte(data, '\n') + 1
	for commas := 0; commas < 9; at++ {
		if data[at] == ',' {
			commas++
		}
	}
	if data[at] < '0' || data[at] > '9' {
		t.Fatalf("byte %d of the CSV is %q, not the digit the test expects", at, data[at])
	}
	data[at] ^= 1 // '4' <-> '5': still a digit, a different payload sum
	if err := os.WriteFile(w.csv[0].path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var tl tally
	out, err = w.rep(&repCtx{m: &meter{}})
	if tl.rep(0, out, err); tl.failed == 0 {
		t.Errorf("one flipped byte went unnoticed: %d checks, none failed", tl.attempted)
	}
}
