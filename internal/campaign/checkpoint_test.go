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
	mustRun(t, Config{Spec: spec, Dir: dir, Jobs: 1})
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

// TestPlanRobustness: plan files live in the same guarded envelope.
func TestPlanRobustness(t *testing.T) {
	t.Run("replan different spec", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := WritePlan(dir, quickSpec, 2); err != nil {
			t.Fatal(err)
		}
		other := quickSpec
		other.Seed = 99
		if _, err := WritePlan(dir, other, 2); err == nil || !strings.Contains(err.Error(), "different plan") {
			t.Fatalf("err = %v, want replan error", err)
		}
	})
	t.Run("replan identical is idempotent", func(t *testing.T) {
		dir := t.TempDir()
		a, err := WritePlan(dir, quickSpec, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := WritePlan(dir, quickSpec, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Jobs) != len(b.Jobs) {
			t.Fatalf("idempotent replan changed the split: %d vs %d jobs", len(a.Jobs), len(b.Jobs))
		}
	})
	t.Run("job out of range", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := WritePlan(dir, quickSpec, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := RunJob(context.Background(), dir, 7, JobOptions{}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("err = %v, want range error", err)
		}
	})
	t.Run("no plan", func(t *testing.T) {
		if _, err := RunJob(context.Background(), t.TempDir(), 0, JobOptions{}); err == nil {
			t.Fatal("running a job without a plan must fail")
		}
	})
	t.Run("merge incomplete", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := WritePlan(dir, quickSpec, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := RunJob(context.Background(), dir, 0, JobOptions{}); err != nil {
			t.Fatal(err)
		}
		_, err := Merge(context.Background(), quickSpec, dir, "")
		if err == nil || !strings.Contains(err.Error(), "shards incomplete") {
			t.Fatalf("err = %v, want incomplete-merge error", err)
		}
	})
	t.Run("job rerun without resume", func(t *testing.T) {
		dir := t.TempDir()
		if _, err := WritePlan(dir, quickSpec, 2); err != nil {
			t.Fatal(err)
		}
		if _, err := RunJob(context.Background(), dir, 0, JobOptions{}); err != nil {
			t.Fatal(err)
		}
		// Sibling jobs are unaffected by job 0's progress...
		if _, err := RunJob(context.Background(), dir, 1, JobOptions{}); err != nil {
			t.Fatalf("sibling job must start despite job 0's checkpoints: %v", err)
		}
		// ...but rerunning job 0 itself needs the resume flag.
		if _, err := RunJob(context.Background(), dir, 0, JobOptions{}); err == nil || !strings.Contains(err.Error(), "pass Resume") {
			t.Fatalf("err = %v, want job resume-gate error", err)
		}
	})
}

// TestResultsCheckpointRobustness covers the experiment-results variant
// of the guarded envelope.
func TestResultsCheckpointRobustness(t *testing.T) {
	type fake struct {
		ID   string
		N    int
		Text string
	}
	path := filepath.Join(t.TempDir(), "experiments.ckpt")
	fp := Fingerprint("run|seed=7|quick=true")

	c, err := OpenResultsCheckpoint(path, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Record("table3", fake{"table3", 42, "answer"}); err != nil {
		t.Fatal(err)
	}
	if err := c.Record("figure7", fake{"figure7", 7, "plot"}); err != nil {
		t.Fatal(err)
	}

	// Reopen with resume: both results round-trip.
	c2, err := OpenResultsCheckpoint(path, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Len() != 2 {
		t.Fatalf("reopened checkpoint holds %d results, want 2", c2.Len())
	}
	var got fake
	if ok, err := c2.Lookup("table3", &got); err != nil || !ok || got.N != 42 {
		t.Fatalf("lookup table3 = %+v ok=%v err=%v", got, ok, err)
	}
	if ok, _ := c2.Lookup("nope", &got); ok {
		t.Fatal("lookup of an unknown id must report absent")
	}

	// Without resume, an existing file is an error.
	if _, err := OpenResultsCheckpoint(path, fp, false); err == nil || !strings.Contains(err.Error(), "resume explicitly") {
		t.Fatalf("err = %v, want results resume-gate error", err)
	}
	// A different run fingerprint is an error.
	if _, err := OpenResultsCheckpoint(path, Fingerprint("run|seed=8"), true); err == nil || !strings.Contains(err.Error(), "different campaign spec") {
		t.Fatalf("err = %v, want fingerprint error", err)
	}
}
