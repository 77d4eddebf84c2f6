package scenario

import (
	"fmt"
	"hash/fnv"
	"path/filepath"
	"testing"

	"insidedropbox/internal/golden"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// legacyStreamHash reproduces the golden-hash construction of
// internal/workload/golden_test.go exactly: one FNV-1a hash over the
// non-anonymized CSV serialization of all shards in index order. The
// scenario compiler's output is fed through the identical pipeline the
// flag-driven path uses, so a matching hash means a matching
// configuration, bit for bit.
func legacyStreamHash(t *testing.T, cfg workload.VPConfig, seed int64, nshards int) uint64 {
	t.Helper()
	h := fnv.New64a()
	w := traces.NewWriter(h)
	for sh := 0; sh < nshards; sh++ {
		workload.GenerateShard(cfg, seed, sh, nshards, func(r *traces.FlowRecord) {
			if err := w.Write(r); err != nil {
				t.Fatal(err)
			}
		})
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// TestEmptySpecMatchesLegacyGolden pins the compiler's backward
// compatibility: a spec with no cohorts and no backend section compiles to
// the same record stream the legacy flag path generates, byte for byte.
// The expected hashes are the legacy goldens (internal/golden) that
// internal/workload's TestRecordStreamGolden pins — if this test fails
// while that one passes, the scenario compiler drifted from the flag path.
func TestEmptySpecMatchesLegacyGolden(t *testing.T) {
	for _, g := range golden.Streams {
		t.Run(g.Name, func(t *testing.T) {
			profile := ""
			if g.Profile != "" {
				profile = fmt.Sprintf(`,"profile":%q`, g.Profile)
			}
			doc := fmt.Sprintf(`{"schema":1,"name":"t","base":{"vp":%q,"scale":%v,"seed":%d,"shards":%d%s}}`,
				g.VP, g.Scale, g.Seed, g.Shards, profile)
			sp, err := Parse([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compile(sp, 0)
			if err != nil {
				t.Fatal(err)
			}
			if c.VP.Cohorts != nil {
				t.Fatal("empty spec grew a cohort plan")
			}
			got := legacyStreamHash(t, c.VP, c.Seed, c.Fleet.Shards)
			if !golden.Match(got, g.Hash) {
				t.Fatalf("compiled stream hash = %#x, want legacy golden %#x (scenario compiler no longer reproduces the flag path)", got, g.Hash)
			}
		})
	}
}

// TestCommittedCatalogue loads, validates and compiles every spec in the
// committed scenarios/ catalogue, and checks the paper-baseline spec
// against the legacy 4-shard golden it documents. New catalogue entries
// are covered automatically.
func TestCommittedCatalogue(t *testing.T) {
	paths, err := filepath.Glob("../../scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 4 {
		t.Fatalf("scenarios/ catalogue has %d specs, want at least 4: %v", len(paths), paths)
	}
	for _, p := range paths {
		t.Run(filepath.Base(p), func(t *testing.T) {
			sp, err := Load(p)
			if err != nil {
				t.Fatalf("catalogue spec does not load: %v", err)
			}
			if sp.Description == "" {
				t.Error("catalogue specs must carry a description")
			}
			c, err := Compile(sp, 1)
			if err != nil {
				t.Fatalf("catalogue spec does not compile: %v", err)
			}
			if sp.Name == "paper-baseline" {
				if got, want := legacyStreamHash(t, c.VP, c.Seed, c.Fleet.Shards), golden.Home1FourShard.Hash; !golden.Match(got, want) {
					t.Fatalf("paper-baseline stream hash = %#x, want %#x (the spec's description documents this golden)", got, want)
				}
			}
		})
	}
}
