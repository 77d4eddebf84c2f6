package campaign

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"testing"

	"insidedropbox/internal/golden"
	"insidedropbox/internal/traces"
)

// TestCampaignJobsInvariance extends the determinism contract (point 16):
// the number of shards generating at once (Workers) never changes a byte
// of the export.
func TestCampaignJobsInvariance(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 8}
	var ref []byte
	for _, workers := range []int{1, 2, 8} {
		res := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: workers})
		data := readExport(t, res)
		if ref == nil {
			ref = data
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("export bytes differ between -workers 1 and -workers %d", workers)
		}
	}
}

// TestCampaignGOMAXPROCSInvariance: the core count never changes a byte
// of the export (it only changes wall-clock time).
func TestCampaignGOMAXPROCSInvariance(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	run := func(procs int) []byte {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		res := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: 4})
		return readExport(t, res)
	}
	single := run(1)
	multi := run(runtime.NumCPU())
	if !bytes.Equal(single, multi) {
		t.Fatal("export bytes differ between GOMAXPROCS=1 and GOMAXPROCS=NumCPU")
	}
	h := fnv.New64a()
	h.Write(single)
	if got, want := fmt.Sprintf("%016x", h.Sum64()), golden.Home1FourShard.Hex(); !golden.Home1FourShard.MatchHex(got) {
		t.Fatalf("export hash = %s, want the home1-4shard golden %s", got, want)
	}
}

// TestCampaignExportFormats: the binary and archival exports are
// worker-count invariant too, and both decode back to the exact golden
// record stream (re-serialized as CSV, they reproduce the golden hash).
func TestCampaignExportFormats(t *testing.T) {
	for _, format := range []string{"binary", "binary-flate"} {
		t.Run(format, func(t *testing.T) {
			spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4, Format: format}
			a := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: 1})
			b := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: 4})
			if !bytes.Equal(readExport(t, a), readExport(t, b)) {
				t.Fatalf("%s export bytes differ between -workers 1 and -workers 4", format)
			}

			f, err := os.Open(a.ExportPath)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var rd interface {
				Read() (*traces.FlowRecord, error)
			}
			if format == "binary" {
				rd = traces.NewBinaryReader(f)
			} else {
				rd = traces.NewFlateReader(f)
			}
			h := fnv.New64a()
			cw := traces.NewWriter(h)
			for {
				rec, err := rd.Read()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := cw.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := cw.Flush(); err != nil {
				t.Fatal(err)
			}
			if got, want := fmt.Sprintf("%016x", h.Sum64()), golden.Home1FourShard.Hex(); !golden.Home1FourShard.MatchHex(got) {
				t.Fatalf("%s round-trip CSV hash = %s, want golden %s", format, got, want)
			}
		})
	}
}

// TestCampaignAnonymizedInvariance: the anonymized export (what
// cmd/dropsim ships by default) is also worker-count invariant — the
// anonymizer is a pure per-record function, so the pool cannot perturb it.
func TestCampaignAnonymizedInvariance(t *testing.T) {
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4, Anonymize: true}
	a := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: 1})
	b := mustRun(t, Config{Spec: spec, Dir: t.TempDir(), Workers: 3})
	if a.StreamHash != b.StreamHash || !bytes.Equal(readExport(t, a), readExport(t, b)) {
		t.Fatal("anonymized export differs across worker counts")
	}
}
