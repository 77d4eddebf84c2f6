// Package golden is the one table of the legacy golden stream hashes:
// each configuration's FNV-1a 64 hash of the non-anonymized CSV export of
// its record stream, shards concatenated in index order. The generator,
// the scenario compiler, the backend tee, the telemetry layer and every
// campaign path must reproduce these bit for bit; a test that pins a
// stream reads its expected hash here, so a deliberate generator change
// re-pins one table.
package golden

import "fmt"

// Stream is one pinned configuration and its hash.
type Stream struct {
	Name    string // subtest name
	VP      string // vantage point, as workload.ByName resolves it
	Scale   float64
	Seed    int64
	Shards  int
	Profile string // capability profile name; "" keeps the VP's calibration
	Hash    uint64
}

// Hex renders the hash as manifests and campaign results carry it.
func (s Stream) Hex() string { return fmt.Sprintf("%016x", s.Hash) }

// The five legacy golden streams.
var (
	Home1OneShard    = Stream{"home1-1shard", "home1", 0.02, 7, 1, "", 0xd01117eb3a234b9d}
	Home1FourShard   = Stream{"home1-4shard", "home1", 0.02, 7, 4, "", 0x1887b88d5f86bad5}
	Home2Abnormal    = Stream{"home2-abnormal-1shard", "home2", 0.02, 9, 1, "", 0xa59024c1345e9efb}
	Campus1          = Stream{"campus1-1shard", "campus1", 0.1, 7, 1, "", 0x6e788bc7931c6666}
	Campus1BigChunks = Stream{"campus1-bigchunks-1shard", "campus1", 0.1, 7, 1, "big-chunks-16mb", 0x5ffb4eb3ba85ad2b}
)

// Streams lists every golden stream.
var Streams = []Stream{Home1OneShard, Home1FourShard, Home2Abnormal, Campus1, Campus1BigChunks}
