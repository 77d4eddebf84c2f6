// Command benchmark is the repository's benchmark: eight pinned workloads,
// each reporting the end-to-end metrics a user of the system sees and, in
// a separate traced run, a single-core per-layer budget that sums to the
// end-to-end figure. Every layer is measured from outside, by timing calls
// into its public functions and through the observation hooks the
// packages already export; no measured layer is changed. BENCHMARK.json at
// the repository root names the command, workloads and metrics; README.md
// in this directory explains them.
//
// Usage:
//
//	go run ./benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-out DIR]
//
// With -workload the process runs that one workload — a closed loop with
// a single caller — and prints one "workload metric value unit" line per
// metric, then one JSON object as its last line. Without it the command
// re-executes itself once per workload, sequentially, so peak RSS and
// allocator state belong to each workload alone; -aa does that twice and
// checks the two sets agree within the end-to-end bounds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/telemetry"
	"insidedropbox/internal/traces"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts repetitions and verification checks, failed ones among
// them, and holds each input variant's first fingerprint as the reference.
type tally struct {
	attempted, failed int
	ref               map[int]string
}

// rep books one repetition and reports whether it succeeded. Beyond the
// checks the repetition made itself, its fingerprint must equal that of
// the first repetition on the same input: same records, same bytes, same
// statistics.
func (t *tally) rep(variant int, out outcome, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "repetition failed:", err)
		return false
	}
	t.attempted += out.checks + 1
	t.failed += out.failed
	if t.ref == nil {
		t.ref = make(map[int]string)
	}
	if ref, seen := t.ref[variant]; !seen {
		t.ref[variant] = out.fp
	} else if out.fp != ref {
		t.failed++
		fmt.Fprintf(os.Stderr, "verification failed: repetition on input %d produced\n%s\nthe first produced\n%s\n", variant, out.fp, ref)
	}
	return true
}

// result assembles the run's final object; defs fixes the metric set so
// that every name is present even when the run failed early.
func (t *tally) result(defs []metricDef, values map[string]float64) result {
	res := result{
		Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed,
		Metrics: make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// runMeasured is the -trace 0 run: set-up, then cycles of timed
// repetitions, one per input variant, then the end-to-end metrics.
//
// Set-up happens in rounds, each building another batch of the inputs and
// ending in one discarded warm-up repetition on an input it built;
// setup_s is the median round. Building every input in every round would
// cost three times the set-up for the same median.
//
// Another cycle starts only while it is expected to end by 1.1 x seconds,
// so a run measures for about that long, and always completes one cycle.
func runMeasured(name string, w runner, sz sizes, seconds float64) (result, error) {
	var t tally
	var setups []float64
	for i := 0; i < sz.setups; i++ {
		t0 := time.Now()
		if err := w.prepare(i, sz.setups); err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		// Input v is built in round v % setups, so input i % variants is
		// ready by round i: each round warms up on another input, and
		// their median is not at the mercy of one population's size.
		v := i % w.variants()
		out, err := w.rep(&repCtx{m: &meter{}, variant: v})
		setups = append(setups, time.Since(t0).Seconds())
		if !t.rep(v, out, err) {
			return t.result(endToEnd, nil), nil
		}
	}

	m := &meter{}
	var units, outBytes, mallocs, allocBytes float64
	var cpu time.Duration
	variantUnits := make([]float64, w.variants())
	variantWalls := make([][]float64, w.variants())
	lo, hi := math.Inf(1), math.Inf(-1)
	cycles := 0
	for start := time.Now(); ; {
		cycleStart := time.Now()
		for v := range variantWalls {
			out, err := w.rep(&repCtx{m: m, variant: v})
			if !t.rep(v, out, err) {
				return t.result(endToEnd, nil), nil
			}
			s := m.last()
			units += float64(out.units)
			outBytes += float64(out.bytes)
			cpu += s.cpu
			mallocs += float64(s.mallocs)
			allocBytes += float64(s.allocBytes)
			variantUnits[v] = float64(out.units)
			variantWalls[v] = append(variantWalls[v], s.wall.Seconds())
			lo, hi = min(lo, s.wall.Seconds()), max(hi, s.wall.Seconds())
		}
		cycles++
		if (time.Since(start) + time.Since(cycleStart)).Seconds() > 1.1*seconds {
			break
		}
	}

	// Each variant's time is the median of its repetitions; the variants
	// weigh in by their size, as they do in CPU time and allocations.
	var cycleUnits, cycleWall float64
	for v, walls := range variantWalls {
		cycleUnits += variantUnits[v]
		cycleWall += median(walls)
	}
	values := map[string]float64{
		"setup_s":              median(setups),
		"throughput_units_s":   ratio(cycleUnits, cycleWall),
		"cpu_s_per_munit":      ratio(cpu.Seconds(), units) * 1e6,
		"allocs_per_unit":      ratio(mallocs, units),
		"alloc_bytes_per_unit": ratio(allocBytes, units),
		"out_bytes_per_unit":   ratio(outBytes, units),
	}
	printMetrics(name, endToEnd, values)
	fmt.Printf("# %s peak RSS %.1f MiB (the largest input sets it, so it is a per-layer metric, not a bounded one)\n", name, peakRSSMB())
	fmt.Printf("# %s throughput_units_s is the units of one cycle over %d inputs / the sum of each input's median repetition time, from %d cycles (repetitions took %.4f to %.4f s); too few samples for a tail percentile\n",
		name, w.variants(), cycles, lo, hi)
	return t.result(endToEnd, values), nil
}

// telemetryKeys are the process counters a traced run reads around its
// multi-core repetitions.
var telemetryKeys = []string{
	"fleet.records", "fleet.stream_stalls", "fleet.pool_hits", "fleet.pool_misses",
	"traces.parallel_blocks", "traces.parallel_block_waits", "campaign.checkpoints_written",
}

// runTraced is the -trace 1 run. It first times a block of repetitions at
// the measured run's GOMAXPROCS, reading the engine's counters around
// them. Then, at GOMAXPROCS=1 — where stages do not overlap and a budget
// can sum — each round times the workload's isolation stages and two
// repetitions, one plain and one with the span wrappers. Rounds repeat
// until seconds have passed; every figure is a median over rounds. The
// whole pass runs on input variant 0: the run's own seed.
func runTraced(name string, w runner, sz sizes, seconds float64, outDir string) (result, error) {
	procs := measuredProcs()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var t tally
	if err := w.prepare(0, w.variants()); err != nil { // input 0 alone
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	stages := w.stages()
	tr := newTracer(name)
	var d traceData
	m := &meter{}
	// rep runs one repetition under a root span named after its mode.
	rep := func(mode string, x *repCtx) bool {
		root := tr.start(0, "rep", mode, false)
		x.m = m
		if mode == "traced" {
			x.tr, x.parent = tr, root.id()
		}
		out, err := w.rep(x)
		if !t.rep(0, out, err) {
			return false
		}
		root.endSample(m.last(), out.units, out.bytes)
		return true
	}

	// The multi-core repetitions run as one block straight after the
	// warm-up, never between single-core work: a virtual machine can take
	// a second to give a process its second core back after a
	// single-threaded stretch, and a repetition caught in that second
	// reads wall = CPU.
	runtime.GOMAXPROCS(procs)
	if out, err := w.rep(&repCtx{m: &meter{}}); !t.rep(0, out, err) { // warm-up, discarded
		return t.result(perLayer, nil), nil
	}
	counters := make(map[string]float64)
	var skews []float64
	multiReps := 0
	for start := time.Now(); multiReps < sz.minRounds || time.Since(start).Seconds() < seconds/5; multiReps++ {
		from := tr.mark()
		before := telemetry.Snapshot().Counters
		// Shards finish concurrently; the engine's Observer contract
		// makes serialising them the observer's job.
		var mu sync.Mutex
		var shardSeconds []float64
		ok := rep("multi", &repCtx{observer: func(ev fleet.ShardEvent) {
			mu.Lock()
			shardSeconds = append(shardSeconds, ev.Elapsed.Seconds())
			mu.Unlock()
		}})
		if !ok {
			return t.result(perLayer, nil), nil
		}
		after := telemetry.Snapshot().Counters
		for _, k := range telemetryKeys {
			counters[k] += float64(after[k] - before[k])
		}
		if len(shardSeconds) > 0 {
			var sum, worst float64
			for _, s := range shardSeconds {
				sum += s
				worst = max(worst, s)
			}
			skews = append(skews, ratio(worst, sum/float64(len(shardSeconds))))
		}
		d.fold(tr.since(from))
	}
	// Read before the isolation stages materialise their samples: so far
	// the process has done what a measured run does on this input.
	peakRSS := peakRSSMB()

	runtime.GOMAXPROCS(1)
	rounds := 0
	for start := time.Now(); rounds < sz.minRounds || time.Since(start).Seconds() < seconds*4/5; rounds++ {
		from := tr.mark()
		for _, st := range stages {
			var sample []*traces.FlowRecord
			if st.input != nil {
				sample = st.input()
			}
			sp := tr.start(0, st.layer, st.name, true)
			units, bytes, err := st.run(sample)
			sp.end(units, bytes)
			t.attempted++
			if err != nil {
				t.failed++
				fmt.Fprintf(os.Stderr, "stage %s.%s failed: %v\n", st.layer, st.name, err)
			}
		}
		// The two repetitions swap places every round, so that whatever
		// running second costs cancels out of their ratio.
		modes := []string{"plain", "traced"}
		if rounds%2 == 1 {
			modes = []string{"traced", "plain"}
		}
		for _, mode := range modes {
			if !rep(mode, &repCtx{}) {
				return t.result(perLayer, nil), nil
			}
		}
		d.fold(tr.since(from))
	}

	values := make(map[string]float64, len(perLayer))
	unitsPerRep := d.units("rep.plain")
	b := budget{composed: ratio(d.ns("rep.plain"), unitsPerRep)}
	b.rows = w.layers(&d, unitsPerRep, values)

	// What the engine's own counters saw on the multi-core repetitions.
	values["fleet.stream_stalls_per_krec"] = ratio(counters["fleet.stream_stalls"], counters["fleet.records"]/1000)
	values["fleet.pool_hit_ratio"] = ratio(counters["fleet.pool_hits"], counters["fleet.pool_hits"]+counters["fleet.pool_misses"])
	values["traces.parallel_block_waits_per_kblock"] = ratio(counters["traces.parallel_block_waits"], counters["traces.parallel_blocks"]/1000)
	values["campaign.checkpoints_written"] = ratio(counters["campaign.checkpoints_written"], float64(multiReps))
	values["fleet.shard_skew"] = median(skews)

	values["process.peak_rss_mb"] = peakRSS
	values["budget.composed_1p_ns_per_unit"] = b.composed
	values["budget.unattributed_ns_per_unit"] = b.unattributed()
	values["budget.unattributed_share"] = ratio(b.unattributed(), b.composed)
	values["budget.scaling_x"] = ratio(d.ns("rep.plain"), d.ns("rep.multi"))
	values["budget.trace_overhead_ratio"] = ratio(d.ns("rep.traced"), d.ns("rep.plain"))
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range d.rounds["rep.multi"] {
		lo, hi = min(lo, r.ns), max(hi, r.ns)
	}
	values["budget.rep_spread"] = ratio(hi-lo, d.ns("rep.multi"))

	tracePath := filepath.Join(outDir, "trace.json")
	t.attempted++
	if err := tr.save(tracePath); err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "writing trace:", err)
	}
	printMetrics(name, perLayer, values)
	b.print(name)
	fmt.Printf("# %s: %d repetitions at GOMAXPROCS %d, %d rounds at GOMAXPROCS 1, %d spans in %s\n",
		name, multiReps, procs, rounds, tr.mark(), tracePath)
	return t.result(perLayer, values), nil
}

// printMetrics writes one "workload metric value unit" line per metric.
func printMetrics(workload string, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Printf("%s %s %s %s\n", workload, d.name, strconv.FormatFloat(values[d.name], 'g', 6, 64), d.unit)
	}
}

// runOne runs a single workload in this process and prints its result.
// All files go to a fresh directory under outDir, removed before exit.
func runOne(name string, seed int64, seconds float64, traced bool, outDir string) int {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	dir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	w, err := newRunner(name, seed, fullSizes, dir)
	if err != nil {
		os.RemoveAll(dir)
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	procs := measuredProcs()
	runtime.GOMAXPROCS(procs)
	printProvenance("start", procs)
	var res result
	if traced {
		res, err = runTraced(name, w, fullSizes, seconds, outDir)
	} else {
		res, err = runMeasured(name, w, fullSizes, seconds)
	}
	rmErr := os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		return 1
	}
	res.Attempted++
	if rmErr != nil {
		res.Failed++
		res.Correct = false
		fmt.Fprintln(os.Stderr, "removing scratch directory:", rmErr)
	}
	printProvenance("end", procs)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// runSet re-executes this binary once per workload and returns each
// workload's result.
func runSet(seed int64, seconds float64, trace int, outDir string) (map[string]result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := make(map[string]result, len(workloadDefs))
	for _, wd := range workloadDefs {
		cmd := exec.Command(self,
			"-workload", wd.name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
			"-trace", strconv.Itoa(trace), "-out", filepath.Join(outDir, wd.name))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wd.name, err)
		}
		body := bytes.TrimRight(stdout, "\n")
		last := bytes.LastIndexByte(body, '\n') + 1
		os.Stdout.Write(body[:last])
		var res result
		if err := json.Unmarshal(body[last:], &res); err != nil {
			return nil, fmt.Errorf("%s: parsing result line: %w", wd.name, err)
		}
		fmt.Printf("%s correct=%v attempted=%d failed=%d\n", wd.name, res.Correct, res.Attempted, res.Failed)
		set[wd.name] = res
	}
	return set, nil
}

// runAll runs every workload, each in its own process. With aa it runs
// two full sets back to back on the same build and demands that every
// workload x end-to-end metric pair agrees within the metric's bound: the
// tool that tells a regression from jitter.
func runAll(seed int64, seconds float64, trace int, aa bool, outDir string) int {
	sets := 1
	if aa {
		sets, trace = 2, 0
	}
	var results []map[string]result
	code := 0
	for i := 0; i < sets; i++ {
		set, err := runSet(seed, seconds, trace, outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, wd := range workloadDefs {
			if !set[wd.name].Correct {
				fmt.Printf("FAIL %s: %d of %d repetitions and checks failed\n", wd.name, set[wd.name].Failed, set[wd.name].Attempted)
				code = 1
			}
		}
		results = append(results, set)
	}
	if !aa {
		return code
	}
	fmt.Printf("\n%-18s %-22s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, wd := range workloadDefs {
		for _, d := range endToEnd {
			a, b := results[0][wd.name].Metrics[d.name].Value, results[1][wd.name].Metrics[d.name].Value
			diff := ratio(math.Abs(a-b), min(math.Abs(a), math.Abs(b)))
			verdict := ""
			if diff > d.bound {
				verdict = "  DISAGREE"
				code = 1
			}
			fmt.Printf("%-18s %-22s %14.6g %14.6g %9.4f %7.3f%s\n", wd.name, d.name, a, b, diff, d.bound, verdict)
		}
	}
	return code
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: every workload, each in its own process)")
	seed := flag.Int64("seed", 2012, "seed every input is derived from")
	seconds := flag.Float64("seconds", 8, "how long one run measures")
	trace := flag.Int("trace", 0, "1: the traced single-core pass printing the per-layer metrics; 0: the measured run printing the end-to-end metrics")
	aa := flag.Bool("aa", false, "run two full measured sets and check they agree within the end-to-end bounds")
	out := flag.String("out", ".bench_build", "directory for scratch files (removed on exit) and trace.json")
	flag.Parse()
	if flag.NArg() > 0 || *trace < 0 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	if *workload == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *aa, *out))
	}
	os.Exit(runOne(*workload, *seed, *seconds, *trace == 1, *out))
}
