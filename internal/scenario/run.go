package scenario

import (
	"context"
	"hash"
	"hash/fnv"

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
	// StreamHash fingerprints the full record stream: per-shard FNV-1a
	// over the CSV serialization, folded across shards in shard-index
	// order. It is a function of (spec, seed, shards) alone — worker
	// count never changes it (determinism-contract point 15).
	StreamHash uint64
}

// hashFold mixes one shard's stream hash into the combined fingerprint
// (FNV-1a step over the 8 hash bytes).
func hashFold(acc, shardHash uint64) uint64 {
	const prime = 0x100000001b3
	for i := 0; i < 8; i++ {
		acc ^= (shardHash >> (8 * i)) & 0xff
		acc *= prime
	}
	return acc
}

// hashFoldOffset seeds the fold (the standard FNV-1a offset basis).
const hashFoldOffset = 0xcbf29ce484222325

// streamAgg is the per-shard aggregator of CollectStream: it feeds every
// record through the CSV serializer into a running FNV-1a hash and keeps
// the backend requests (plain values — safe on the pooled path; the CSV
// writer consumes the record before Consume returns).
type streamAgg struct {
	reqs backend.Collector
	h    hash.Hash64
	w    *traces.Writer

	// shardHash is this shard's own stream hash, closed by FinishShard.
	// combined is the shard-order fold of shard hashes: the shard's own
	// from FinishShard, then on the root each later shard's as Merge is
	// called.
	shardHash, combined uint64
}

func newStreamAgg() *streamAgg {
	h := fnv.New64a()
	return &streamAgg{h: h, w: traces.NewWriter(h)}
}

// Consume implements fleet.Sink.
func (s *streamAgg) Consume(r *traces.FlowRecord) {
	s.w.Write(r) // hashing never fails; Flush would surface any error
	s.reqs.Consume(r)
}

// FinishShard implements fleet.ShardFinisher: on the shard's worker, the
// stream hash is closed and the requests sorted into one run.
func (s *streamAgg) FinishShard() {
	s.w.Flush()
	s.shardHash = s.h.Sum64()
	s.combined = hashFold(hashFoldOffset, s.shardHash)
	s.reqs.FinishShard()
}

// Merge implements fleet.Aggregator. The engine merges in shard-index
// order onto the shard-0 root, so folding each incoming shard's hash after
// the root's own keeps the combined fingerprint a pure function of the
// shard streams.
func (s *streamAgg) Merge(other fleet.Aggregator) {
	o := other.(*streamAgg)
	s.combined = hashFold(s.combined, o.shardHash)
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
	agg, stats, err := fleet.Aggregate(ctx, c.VP, c.Seed, fc, func(int) fleet.Aggregator { return newStreamAgg() })
	if err != nil {
		return nil, err
	}
	root := agg.(*streamAgg)
	return &StreamResult{Stats: stats, Requests: root.reqs.Arrivals(), StreamHash: root.combined}, nil
}
