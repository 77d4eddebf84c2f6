package scenario

import (
	"context"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
)

// StreamResult is one compiled scenario streamed through the fleet
// engine: the merged ground-truth stats (per-cohort counts included), the
// backend arrival set in canonical order, and the campaign's stream hash.
type StreamResult struct {
	Stats fleet.VPStats
	// Requests are the Dropbox-bound arrivals in canonical order (base
	// load — surges are applied at simulation time, see ApplySurges).
	Requests []backend.Request
	// StreamHash fingerprints the full record stream: one
	// traces.Fingerprint per shard over the record fields, the shard sums
	// folded in shard-index order through the same word mixer. It is a
	// function of (spec, seed, shards) alone — worker count never changes
	// it (determinism-contract point 15). It is not comparable with the
	// FNV-1a hashes over a CSV or binary export.
	StreamHash uint64
}

// streamAgg is the per-shard aggregator of CollectStream: it fingerprints
// every record's fields and keeps the backend requests (plain values —
// safe on the pooled path; neither retains the record).
type streamAgg struct {
	reqs backend.Collector
	fp   traces.Fingerprint

	// shardSum is this shard's fingerprint, closed by FinishShard. fold
	// is the shard-order fold of shard sums: the shard's own from
	// FinishShard, then on the root each later shard's as Merge is called.
	shardSum uint64
	fold     traces.Fingerprint
}

// Consume implements fleet.Sink.
func (s *streamAgg) Consume(r *traces.FlowRecord) {
	s.fp.Add(r)
	s.reqs.Consume(r)
}

// FinishShard implements fleet.ShardFinisher: on the shard's worker, the
// shard's fingerprint is closed and the requests sorted into one run.
func (s *streamAgg) FinishShard() {
	s.shardSum = s.fp.Sum64()
	s.fold.AddUint64(s.shardSum)
	s.reqs.FinishShard()
}

// Merge implements fleet.Aggregator. The engine merges in shard-index
// order onto the shard-0 root, so folding each incoming shard's sum after
// the root's own keeps the combined fingerprint a pure function of the
// shard streams.
func (s *streamAgg) Merge(other fleet.Aggregator) {
	o := other.(*streamAgg)
	s.fold.AddUint64(o.shardSum)
	s.reqs.Merge(&o.reqs)
}

// CollectStream runs a compiled scenario's population through the sharded
// fleet engine once, producing the stream fingerprint, the per-cohort
// ground truth and the backend arrival set in one pass. workers > 0
// overrides the worker count (never the results). Cancelling ctx aborts
// at fleet-shard granularity.
func CollectStream(ctx context.Context, c *Compiled, workers int) (*StreamResult, error) {
	fc := c.Fleet
	if workers > 0 {
		fc.Workers = workers
	}
	aggs, stats, err := fleet.Aggregate(ctx, []fleet.Population{{VP: c.VP, Seed: c.Seed}}, fc, func(int, int) fleet.Aggregator { return new(streamAgg) })
	if err != nil {
		return nil, err
	}
	root := aggs[0].(*streamAgg)
	return &StreamResult{Stats: stats[0], Requests: root.reqs.Arrivals(), StreamHash: root.fold.Sum64()}, nil
}
