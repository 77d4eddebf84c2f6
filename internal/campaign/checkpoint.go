package campaign

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"insidedropbox/internal/workload"
)

// CheckpointSchema versions the checkpoint payload. Loaders reject any
// other version — a stale checkpoint never resumes silently. Schema 3
// carries each shard's generation stats in its entry; schema 2 kept them
// in a state file beside the part, and schema 1 recorded part checksums as
// FNV-1a rather than CRC-32C, so both are refused here rather than blamed
// on their parts.
const CheckpointSchema = 3

// envelopeMagic opens every checkpoint file. The header line is
//
//	IDCP1 <crc32-ieee hex8> <payload-length>\n
//
// followed by exactly payload-length bytes of JSON. The CRC guards the
// payload, the length catches truncation, and the magic catches files
// that are not checkpoints at all — three distinct loud failures.
const envelopeMagic = "IDCP1"

// kindShards is the checkpoint payload's kind, the one a campaign writes.
const kindShards = "shards"

// ShardDone is one completed shard's checkpoint entry: its part's record
// count, exact size and CRC-32C, so resume and merge verify the bytes
// they reuse, and the shard's generation stats, which the merge folds.
type ShardDone struct {
	Shard     int                 `json:"shard"`
	Records   int                 `json:"records"`
	PartBytes int64               `json:"part_bytes"`
	PartHash  string              `json:"part_hash"`
	Stats     workload.ShardStats `json:"stats"`
}

// checkpointBody is the JSON payload inside the envelope.
type checkpointBody struct {
	Schema      int         `json:"schema"`
	Kind        string      `json:"kind"`
	Fingerprint string      `json:"fingerprint"`
	Spec        *Spec       `json:"spec,omitempty"`
	Shards      []ShardDone `json:"shards,omitempty"`
}

// encodeEnvelope frames a payload with the guarded header.
func encodeEnvelope(payload []byte) []byte {
	head := fmt.Sprintf("%s %08x %d\n", envelopeMagic, crc32.ChecksumIEEE(payload), len(payload))
	return append([]byte(head), payload...)
}

// decodeEnvelope validates the frame and returns the payload. Every
// failure mode gets its own message: these errors are the user's only
// clue why a resume refused to proceed.
func decodeEnvelope(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("checkpoint truncated: no header line in %d bytes", len(data))
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) < 1 || fields[0] != envelopeMagic {
		return nil, fmt.Errorf("not a campaign checkpoint (header %q, want magic %q)", string(data[:nl]), envelopeMagic)
	}
	if len(fields) != 3 {
		return nil, fmt.Errorf("checkpoint header unreadable: %q", string(data[:nl]))
	}
	var crc uint32
	var n int
	if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%x %d", &crc, &n); err != nil {
		return nil, fmt.Errorf("checkpoint header unreadable: %q", string(data[:nl]))
	}
	payload := data[nl+1:]
	if n < 0 || len(payload) != n {
		return nil, fmt.Errorf("checkpoint truncated: header declares %d payload bytes, file holds %d", n, len(payload))
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("checkpoint corrupt: payload CRC %08x, header says %08x", got, crc)
	}
	return payload, nil
}

// decodeCheckpoint decodes and validates a checkpoint file's bytes
// against the expected kind and spec fingerprint; an empty wantKind or
// wantFP skips that gate.
func decodeCheckpoint(data []byte, wantKind, wantFP string) (*checkpointBody, error) {
	payload, err := decodeEnvelope(data)
	if err != nil {
		return nil, err
	}
	var body checkpointBody
	if err := json.Unmarshal(payload, &body); err != nil {
		return nil, fmt.Errorf("checkpoint payload is not valid JSON: %w", err)
	}
	if body.Schema != CheckpointSchema {
		return nil, fmt.Errorf("checkpoint schema %d is not supported by this build (wants %d) — rerun without resume", body.Schema, CheckpointSchema)
	}
	if wantKind != "" && body.Kind != wantKind {
		return nil, fmt.Errorf("checkpoint kind %q, expected %q", body.Kind, wantKind)
	}
	if wantFP != "" && body.Fingerprint != wantFP {
		return nil, fmt.Errorf("checkpoint belongs to a different campaign spec (fingerprint %s, this run is %s) — resuming under a changed spec is not allowed", body.Fingerprint, wantFP)
	}
	return &body, nil
}

// saveCheckpoint writes a checkpoint atomically: encode, write to a .tmp
// sibling, fsync, rename over the target, fsync the directory. A crash
// at any point leaves either the previous checkpoint or the new one —
// stray .tmp files are ignored by loaders and overwritten by the next
// save. midWrite, when non-nil, runs after half the bytes are flushed
// (the crash-injection hook for the mid-fsync kill tests); its error ends
// the save.
func saveCheckpoint(path string, body checkpointBody, midWrite func() error) error {
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}
	data := encodeEnvelope(payload)
	return writeFileAtomicFunc(path, func(f *os.File) error {
		if midWrite != nil {
			if _, err := f.Write(data[:len(data)/2]); err != nil {
				return err
			}
			if err := f.Sync(); err != nil {
				return err
			}
			if err := midWrite(); err != nil {
				return err
			}
			_, err := f.Write(data[len(data)/2:])
			return err
		}
		_, err := f.Write(data)
		return err
	})
}

// writeFileAtomicFunc streams content into path via a .tmp sibling with
// fsync + rename + directory fsync, so the target path only ever holds
// complete content.
func writeFileAtomicFunc(path string, fill func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// loadCheckpoint reads the checkpoint at path, validated against the
// spec fingerprint, and returns its entries sorted by shard; no file means
// no progress. An entry outside the spec's shards, or one listed twice,
// makes the checkpoint inconsistent.
func loadCheckpoint(path, wantFP string, shards int) ([]ShardDone, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	body, err := decodeCheckpoint(data, kindShards, wantFP)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	done := body.Shards
	slices.SortFunc(done, func(a, b ShardDone) int { return cmp.Compare(a.Shard, b.Shard) })
	for i, e := range done {
		if e.Shard < 0 || e.Shard >= shards || i > 0 && done[i-1].Shard == e.Shard {
			return nil, fmt.Errorf("campaign: %s: shard %d is listed twice or outside the campaign's %d shards — the checkpoint is inconsistent",
				path, e.Shard, shards)
		}
	}
	return done, nil
}
