package campaign

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"insidedropbox/internal/workload"
)

// FuzzCheckpointDecode hammers the checkpoint loader with arbitrary
// bytes: it must return errors, never panic, and anything it accepts
// must re-encode to a frame it accepts again with identical content
// (decode/encode/decode is the identity on the valid subset). Checkpoint
// files cross process and machine boundaries in the multi-process flow,
// so the loader is an input-validation surface, not just a codec.
func FuzzCheckpointDecode(f *testing.F) {
	seed := func(body checkpointBody) {
		payload, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeEnvelope(payload))
	}
	spec := Spec{VP: "home1", Scale: 0.02, Seed: 7, Shards: 4}
	seed(checkpointBody{
		Schema: CheckpointSchema, Kind: kindShards, Fingerprint: spec.Fingerprint(), Spec: &spec,
		Shards: []ShardDone{{Shard: 0, Records: 123, PartBytes: 4567, PartHash: "00c0ffee", Stats: workload.ShardStats{
			Records: 123, Households: 4, Devices: 9, SyncEvents: 17,
			BackgroundByDay: []float64{1.5, 2.25}, YouTubeByDay: []float64{0.125, 3},
			CohortDevices: map[string]int{"base": 9}, CohortRecords: map[string]int{"base": 80},
		}}},
	})
	seed(checkpointBody{
		Schema: CheckpointSchema, Kind: kindPlan, Fingerprint: spec.Fingerprint(), Spec: &spec,
		Jobs: [][2]int{{0, 2}, {2, 4}},
	})
	seed(checkpointBody{
		Schema: CheckpointSchema, Kind: kindResults, Fingerprint: Fingerprint("run|seed=7"),
		Results: []ResultEntry{{ID: "table3", Result: json.RawMessage(`{"n":42}`)}},
	})
	// Hostile shapes: truncation, non-checkpoint, torn header, bad CRC.
	f.Add([]byte(""))
	f.Add([]byte("IDCP1"))
	f.Add([]byte("IDCP1 00000000 0\n"))
	f.Add([]byte("IDCP1 deadbeef 4\n{}"))
	f.Add([]byte("IDCP9 00000000 2\n{}"))
	f.Add([]byte("not a checkpoint at all\njust bytes"))

	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := decodeCheckpoint(data, "", "")
		if err != nil {
			return // rejected loudly: that is the contract
		}
		payload, err := json.Marshal(body)
		if err != nil {
			t.Fatalf("accepted body failed to re-marshal: %v", err)
		}
		again, err := decodeCheckpoint(encodeEnvelope(payload), body.Kind, body.Fingerprint)
		if err != nil {
			t.Fatalf("re-encoded checkpoint rejected: %v", err)
		}
		p2, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(payload) != string(p2) {
			t.Fatalf("decode/encode/decode is not the identity:\n%s\nvs\n%s", payload, p2)
		}
	})
}

// TestFuzzValidSeedsDecode: the committed valid-* corpus entries are
// checkpoints of the current schema, so the fuzzer starts from frames the
// loader accepts rather than ones a schema revision left stale.
func TestFuzzValidSeedsDecode(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzCheckpointDecode", "valid-*"))
	if err != nil || len(paths) != 3 {
		t.Fatalf("valid corpus entries: %v (%v), want 3", paths, err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		_, line, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
		lit, ok := strings.CutPrefix(line, "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if !ok || err != nil {
			t.Fatalf("%s: not a []byte corpus entry: %v", p, err)
		}
		if _, err := decodeCheckpoint([]byte(data), "", ""); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}
