package main

// metricDef names one metric the benchmark prints. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// TestBenchmarkJSONMatchesCode keeps the two in step.
type metricDef struct {
	name, unit string
	// better is "lower" or "higher".
	better string
	// bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change counts as a regression; it is
	// also the agreement -aa demands of two runs of one build. Per-layer
	// metrics have none.
	bound float64
}

// workloadDef names one workload and records why it is in the set.
type workloadDef struct {
	name, why string
}

// workloadDefs is the pinned workload set, in execution order.
var workloadDefs = []workloadDef{
	{"export-binary", "Flagship export: fleet.StreamRecords into the writer dropsim -format binary picks; generate, hand-off and encode share the time, so batched hand-off and pooled export must show here."},
	{"export-flate", "Same path with the work moved into compression: a hand-off gain barely registers here, a compression gain only here."},
	{"summarize", "Pooled generate plus aggregate, with no channel hand-off, codec or disk: the bypass workload for codec, hand-off and merge changes, and the one path that scales with cores."},
	{"campaign", "Checkpointed campaign runner: part files, fsync, checkpoint commits and a decode-and-re-encode merge for output byte-identical to export-binary, which is its control."},
	{"scenario-backend", "Cohort overlay, materialised arrivals and the backend event heap: the memory-heavy workload, where a k-way arrival merge and value heap entries show and codecs do nothing."},
	{"read-archive", "Binary and flate decode plus index seeks: a wire or block-layout change that speeds the writers and slows the readers shows here and nowhere else."},
	{"read-csv", "The public-release CSV reader, 12x the per-record cost of binary decode, kept apart so it cannot mask read-archive; where a strict append-style reader rewrite shows."},
	{"paper-repro", "The reproduction itself at quick scale: the only workload on the packet path and the experiment renderers, the guard for consolidation changes."},
}

// endToEnd lists what a user of the system sees, reported on every
// workload by a measured run (-trace 0).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_units_s", "units/s", "higher", 0.25},
	{"cpu_s_per_munit", "s/Munit", "lower", 0.25},
	{"allocs_per_unit", "count", "lower", 0.25},
	{"alloc_bytes_per_unit", "B", "lower", 0.15},
	{"out_bytes_per_unit", "B", "lower", 0.10},
}

// perLayer lists what a traced run (-trace 1) reports. Every workload
// prints every name; a layer that does no work on a workload reads 0,
// which is the "flat on" prediction made measurable.
var perLayer = []metricDef{
	{"workload.generate_ns_per_rec", "ns/rec", "lower", 0},
	{"workload.generate_allocs_per_rec", "count", "lower", 0},
	{"flowmodel.synthesize_ns_per_flow", "ns/flow", "lower", 0},
	{"fleet.run_shard_ns_per_rec", "ns/rec", "lower", 0},
	{"fleet.run_shard_allocs_per_rec", "count", "lower", 0},
	{"fleet.aggregate_ns_per_rec", "ns/rec", "lower", 0},
	{"fleet.handoff_ns_per_rec", "ns/rec", "lower", 0},
	{"fleet.handoff_allocs_per_rec", "count", "lower", 0},
	{"fleet.stream_stalls_per_krec", "1/krec", "lower", 0},
	{"fleet.pool_hit_ratio", "ratio", "higher", 0},
	{"fleet.shard_skew", "ratio", "lower", 0},
	{"traces.encode_binary_ns_per_rec", "ns/rec", "lower", 0},
	{"traces.encode_binary_allocs_per_rec", "count", "lower", 0},
	{"traces.encode_csv_ns_per_rec", "ns/rec", "lower", 0},
	{"traces.encode_flate_ns_per_rec", "ns/rec", "lower", 0},
	{"traces.compress_ns_per_rec", "ns/rec", "lower", 0},
	{"traces.flate_ratio", "ratio", "lower", 0},
	{"traces.parallel_block_waits_per_kblock", "1/kblock", "lower", 0},
	{"traces.decode_binary_ns_per_rec", "ns/rec", "lower", 0},
	{"traces.decode_binary_allocs_per_rec", "count", "lower", 0},
	{"traces.decode_flate_ns_per_rec", "ns/rec", "lower", 0},
	{"traces.decode_flate_allocs_per_rec", "count", "lower", 0},
	{"traces.decode_csv_ns_per_rec", "ns/rec", "lower", 0},
	{"traces.decode_csv_allocs_per_rec", "count", "lower", 0},
	{"traces.seek_flate_us_per_seek", "us/seek", "lower", 0},
	{"file.write_ns_per_rec", "ns/rec", "lower", 0},
	{"campaign.generate_phase_ns_per_rec", "ns/rec", "lower", 0},
	{"campaign.merge_phase_ns_per_rec", "ns/rec", "lower", 0},
	{"campaign.write_amplification", "x", "lower", 0},
	{"campaign.checkpoints_written", "count", "lower", 0},
	{"campaign.overhead_x", "x", "lower", 0},
	{"scenario.compile_ms", "ms", "lower", 0},
	{"scenario.collect_ns_per_rec", "ns/rec", "lower", 0},
	{"scenario.collect_allocs_per_rec", "count", "lower", 0},
	{"scenario.collect_heap_mb", "MB", "lower", 0},
	{"backend.sort_ns_per_req", "ns/req", "lower", 0},
	{"backend.scale_load_ns_per_req", "ns/req", "lower", 0},
	{"backend.simulate_ns_per_event", "ns/event", "lower", 0},
	{"backend.simulate_allocs_per_event", "count", "lower", 0},
	{"experiments.packet_labs_s", "s", "lower", 0},
	{"experiments.population_s", "s", "lower", 0},
	{"process.peak_rss_mb", "MB", "lower", 0},
	{"budget.composed_1p_ns_per_unit", "ns/unit", "lower", 0},
	{"budget.unattributed_ns_per_unit", "ns/unit", "lower", 0},
	{"budget.unattributed_share", "ratio", "lower", 0},
	{"budget.scaling_x", "x", "higher", 0},
	{"budget.trace_overhead_ratio", "ratio", "lower", 0},
	{"budget.rep_spread", "ratio", "lower", 0},
}

// pop sizes one workload's input: a Home 1 population scale (percent of
// the paper's dataset) and how many variants of it one cycle of
// repetitions visits. Variant v is the same population drawn from a seed
// derived from the run's (variantSeed).
//
// The variants are there because the generator is heavy-tailed: at scale
// 1 a population holds zero to three clients that emit 77,000 records
// each, a quarter of the total, so two seeds give populations that differ
// by 15 % in allocations or time per record. What steadies a run across
// seeds is the number of distinct households it samples, so every
// repetition of a cycle draws a population of its own.
type pop struct {
	scale    float64
	variants int
}

// sizes pins the populations and repetition floors. The seed is an
// argument of the run; everything else that shapes an input is here.
type sizes struct {
	export, exportFlate, summarize, campaign, scenario, archive, csv pop
	// paperVariants is the paper-repro cycle length; its populations are
	// the facade's quick scale.
	paperVariants int
	// shards partitions every fleet population but the scenario's.
	shards, scenarioShards int
	// seekEvery sets the index-driven seeks of a read-archive repetition:
	// one per that many records of the input, each followed by seekLen
	// sequential reads. A fixed count would weigh more on a small input
	// than on a large one, and a seek costs 20 times a sequential read.
	seekEvery, seekLen int
	// flows per flowmodel isolation stage run.
	flows int
	// setups is the number of set-up rounds; setup_s is their median.
	setups int
	// minRounds floors the rounds of a traced run, however short -seconds
	// is. A measured run always completes one cycle.
	minRounds int
}

// fullSizes is what BENCHMARK.json runs. The populations are the issue's
// P1..P8 and S02 cut down until one cycle over the variants takes about
// four seconds on a 2-core box, half of what a run measures for.
var fullSizes = sizes{
	export: pop{1, 8}, exportFlate: pop{0.75, 8}, summarize: pop{2, 20}, campaign: pop{0.5, 7},
	scenario: pop{0.06, 3}, archive: pop{0.25, 18}, csv: pop{0.15, 20},
	paperVariants: 16,
	shards:        16, scenarioShards: 8,
	seekEvery: 3000, seekLen: 1000, flows: 12000,
	setups: 3, minRounds: 3,
}

// tinySizes is the go-test scale: every code path, milliseconds each.
var tinySizes = sizes{
	export: pop{0.02, 2}, exportFlate: pop{0.02, 2}, summarize: pop{0.02, 2}, campaign: pop{0.02, 2},
	scenario: pop{0.006, 1}, archive: pop{0.02, 2}, csv: pop{0.02, 2},
	paperVariants: 1,
	shards:        2, scenarioShards: 2,
	seekEvery: 1500, seekLen: 100, flows: 600,
	setups: 1, minRounds: 1,
}

// variantSeed derives the seed of input variant v. Variant 0 is the run's
// own seed.
func variantSeed(seed int64, v int) int64 { return seed + int64(v)*1_000_003 }
