package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickSpec is the cheapest campaign the robustness tests can corrupt.
var quickSpec = Spec{VP: "home1", Scale: 0.01, Seed: 7, Shards: 2}

// exportSpecs is quickSpec under every export format: the merge copies
// columns for the block formats and records for CSV, and a damaged part
// must be refused whichever way it is read. dropsim anonymizes every
// export, so the block formats do here.
func exportSpecs() []Spec {
	var specs []Spec
	for _, format := range []string{"csv", "binary", "binary-flate"} {
		s := quickSpec
		s.Format, s.Anonymize = format, format != "csv"
		specs = append(specs, s)
	}
	return specs
}

// seedCampaign runs a quick campaign of spec and returns its directory and
// the raw checkpoint bytes.
func seedCampaign(t *testing.T, spec Spec) (string, []byte) {
	t.Helper()
	dir := t.TempDir()
	mustRun(t, Config{Spec: spec, Dir: dir, Workers: 1})
	data, err := os.ReadFile(filepath.Join(dir, checkpointName))
	if err != nil {
		t.Fatal(err)
	}
	return dir, data
}

func resumeErr(t *testing.T, dir string, spec Spec) error {
	t.Helper()
	_, err := Run(context.Background(), Config{Spec: spec, Dir: dir, Resume: true})
	return err
}

// TestCheckpointRobustness: every way a checkpoint file can be wrong
// must fail loudly with a distinct, explanatory error — never a silent
// partial resume, never a panic.
func TestCheckpointRobustness(t *testing.T) {
	rewrite := func(t *testing.T, dir string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, checkpointName), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("truncated file", func(t *testing.T) {
		dir, data := seedCampaign(t, quickSpec)
		rewrite(t, dir, data[:len(data)-7])
		if err := resumeErr(t, dir, quickSpec); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("err = %v, want truncation error", err)
		}
	})

	t.Run("truncated header", func(t *testing.T) {
		dir, data := seedCampaign(t, quickSpec)
		rewrite(t, dir, data[:3])
		if err := resumeErr(t, dir, quickSpec); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("err = %v, want truncation error", err)
		}
	})

	t.Run("corrupted payload", func(t *testing.T) {
		dir, data := seedCampaign(t, quickSpec)
		data[len(data)-5] ^= 0x40
		rewrite(t, dir, data)
		if err := resumeErr(t, dir, quickSpec); err == nil || !strings.Contains(err.Error(), "CRC") {
			t.Fatalf("err = %v, want CRC error", err)
		}
	})

	t.Run("not a checkpoint", func(t *testing.T) {
		dir, _ := seedCampaign(t, quickSpec)
		rewrite(t, dir, []byte("GIF89a such image\nvery bytes"))
		if err := resumeErr(t, dir, quickSpec); err == nil || !strings.Contains(err.Error(), "not a campaign checkpoint") {
			t.Fatalf("err = %v, want magic error", err)
		}
	})

	t.Run("stale schema", func(t *testing.T) {
		dir, data := seedCampaign(t, quickSpec)
		payload, err := decodeEnvelope(data)
		if err != nil {
			t.Fatal(err)
		}
		var body checkpointBody
		if err := json.Unmarshal(payload, &body); err != nil {
			t.Fatal(err)
		}
		body.Schema = 999
		stale, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rewrite(t, dir, encodeEnvelope(stale))
		if err := resumeErr(t, dir, quickSpec); err == nil || !strings.Contains(err.Error(), "schema 999") {
			t.Fatalf("err = %v, want schema error", err)
		}
	})

	t.Run("inconsistent entries", func(t *testing.T) {
		for name, mut := range map[string]func([]ShardDone) []ShardDone{
			"shard listed twice":     func(s []ShardDone) []ShardDone { return append(s, s[0]) },
			"shard outside the spec": func(s []ShardDone) []ShardDone { s[1].Shard = quickSpec.Shards; return s },
			"negative shard":         func(s []ShardDone) []ShardDone { s[0].Shard = -1; return s },
		} {
			dir, data := seedCampaign(t, quickSpec)
			payload, err := decodeEnvelope(data)
			if err != nil {
				t.Fatal(err)
			}
			var body checkpointBody
			if err := json.Unmarshal(payload, &body); err != nil {
				t.Fatal(err)
			}
			body.Shards = mut(body.Shards)
			bad, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			rewrite(t, dir, encodeEnvelope(bad))
			if err := resumeErr(t, dir, quickSpec); err == nil || !strings.Contains(err.Error(), "the checkpoint is inconsistent") {
				t.Fatalf("%s: err = %v, want inconsistency error", name, err)
			}
		}
	})

	t.Run("different spec", func(t *testing.T) {
		dir, _ := seedCampaign(t, quickSpec)
		other := quickSpec
		other.Seed = 99
		if err := resumeErr(t, dir, other); err == nil || !strings.Contains(err.Error(), "different campaign spec") {
			t.Fatalf("err = %v, want fingerprint error", err)
		}
	})

	t.Run("resume without flag", func(t *testing.T) {
		dir, _ := seedCampaign(t, quickSpec)
		_, err := Run(context.Background(), Config{Spec: quickSpec, Dir: dir})
		if err == nil || !strings.Contains(err.Error(), "already holds checkpointed progress") {
			t.Fatalf("err = %v, want resume-gate error", err)
		}
	})

	t.Run("stray tmp ignored", func(t *testing.T) {
		dir, _ := seedCampaign(t, quickSpec)
		if err := os.WriteFile(filepath.Join(dir, checkpointName+".tmp"), []byte("torn half-write garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(t, dir, quickSpec); err != nil {
			t.Fatalf("stray .tmp must not block resume: %v", err)
		}
	})

	t.Run("missing part artifact", func(t *testing.T) {
		dir, _ := seedCampaign(t, quickSpec)
		if err := os.Remove(partPath(dir, 1)); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(t, dir, quickSpec); err == nil || !strings.Contains(err.Error(), "artifact is missing") {
			t.Fatalf("err = %v, want missing-artifact error", err)
		}
	})

	t.Run("part size drift", func(t *testing.T) {
		for _, spec := range exportSpecs() {
			t.Run(spec.Format, func(t *testing.T) {
				dir, _ := seedCampaign(t, spec)
				f, err := os.OpenFile(partPath(dir, 0), os.O_APPEND|os.O_WRONLY, 0)
				if err != nil {
					t.Fatal(err)
				}
				f.WriteString("extra")
				f.Close()
				if err := resumeErr(t, dir, spec); err == nil || !strings.Contains(err.Error(), "disagree") {
					t.Fatalf("err = %v, want size-mismatch error", err)
				}
			})
		}
	})

	t.Run("part content corruption", func(t *testing.T) {
		for _, spec := range exportSpecs() {
			t.Run(spec.Format, func(t *testing.T) {
				dir, _ := seedCampaign(t, spec)
				p := partPath(dir, 0)
				data, err := os.ReadFile(p)
				if err != nil {
					t.Fatal(err)
				}
				data[len(data)/2] ^= 0x01 // same size, different bytes
				if err := os.WriteFile(p, data, 0o644); err != nil {
					t.Fatal(err)
				}
				err = resumeErr(t, dir, spec)
				if err == nil || !strings.Contains(err.Error(), "does not match its checkpoint entry") {
					t.Fatalf("err = %v, want checksum-mismatch error", err)
				}
			})
		}
	})

	// Directories from the builds that recorded part checksums as FNV-1a
	// (schema 1) or kept each shard's stats in a state file beside its
	// part (schema 2) are refused by their schema, not blamed on parts
	// that are intact.
	for _, schema := range []int{1, 2} {
		t.Run(fmt.Sprintf("schema %d checkpoint", schema), func(t *testing.T) {
			dir, data := seedCampaign(t, quickSpec)
			payload, err := decodeEnvelope(data)
			if err != nil {
				t.Fatal(err)
			}
			old := bytes.Replace(payload, []byte(`"schema":3,`), []byte(fmt.Sprintf(`"schema":%d,`, schema)), 1)
			if bytes.Equal(old, payload) {
				t.Fatalf("checkpoint payload does not open with schema 3: %s", payload)
			}
			rewrite(t, dir, encodeEnvelope(old))
			err = resumeErr(t, dir, quickSpec)
			want := fmt.Sprintf("checkpoint schema %d is not supported by this build (wants 3)", schema)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("err = %v, want schema error", err)
			}
		})
	}
}
