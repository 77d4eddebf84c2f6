// Package capability defines pluggable client capability profiles: the
// knobs that distinguish one generation of the Dropbox sync client from
// another (or from a hypothetical client that never shipped).
//
// The paper's Sec. 6 shows that a single capability change — the v1.4.0
// chunk bundling — reshaped storage traffic fleet-wide. A Profile is that
// decision as an explicit capability vector (chunk size limit, bundling
// batch size, deduplication, delta encoding, compression, commit
// pipelining, server initial window). Every vantage point, packet-level
// client and flow-model call carries exactly one, so campaigns can ask
// counterfactual questions: what would the probe have seen if Dropbox had
// shipped 16 MB chunks, or disabled deduplication, or fully pipelined the
// storage protocol?
//
// Two presets — DropboxV1252 and DropboxV140 — are the clients the paper
// observed, and the calibrated vantage points are built from them; the
// remaining presets are the hypothetical laboratory.
// experiments.WhatIfConfig.Run runs the same fleet population under several
// profiles and tabulates the deltas versus a baseline.
//
// Determinism contract (EXPERIMENTS.md points 6–8): the profile is part of
// the reproducibility key. (seed, population config, shard count, profile)
// fully determines every generated record; profiles that alter operation
// structure (bundling, dedup duplicates) consume the generator's random
// stream differently and therefore draw a different — equally calibrated —
// sample, exactly as the paper's own before/after datasets do.
package capability

import (
	"fmt"
	"sort"
	"strings"

	"insidedropbox/internal/chunker"
)

// DefaultBundleTarget is how many bytes the 1.4.0 client packs into one
// store_batch / retrieve_batch operation (Sec. 2.3.2).
const DefaultBundleTarget = 4 << 20

// DefaultServerIW is the storage servers' initial congestion window before
// the 1.4.0 deployment tuned it (Appendix A.4).
const DefaultServerIW = 2

// DedupHitFrac is the fraction of transferred chunks that server-side
// deduplication spares the wire in the calibrated populations. Turning
// Dedup off re-materializes those chunks as duplicate transfers. The value
// follows the ~17% cross-user redundancy reported for personal-cloud
// corpora in follow-up benchmarking of the same services.
const DedupHitFrac = 0.17

// NoDeltaInflate multiplies an *edited* file's transfer size when delta
// encoding is disabled: instead of shipping an rsync-style delta
// (Sec. 2.1), the client re-transfers the whole modified file. Only the
// workload's edited-file draws inflate — new files and the archive tail
// were never delta-encoded and are unaffected. The factor is an unsourced
// calibration choice: the paper does not measure it, and the calibrated
// populations are pinned to it.
const NoDeltaInflate = 4

// Profile is one client capability vector. The zero value is not a valid
// profile; start from a preset (or DropboxV1252 for the paper's base
// client) and override fields. Fields with a 0 value fall back to the
// protocol defaults via the accessor methods, so partially-specified
// profiles stay well-formed.
type Profile struct {
	// Name identifies the profile in tables, CLI flags and metric keys.
	Name string

	// ChunkSizeLimit caps chunk size in bytes (Sec. 2.1: 4 MB). Synthetic
	// and real content alike split at this boundary; raising it trades
	// per-chunk acknowledgment overhead for coarser deduplication.
	// Zero means chunker.MaxChunkSize.
	ChunkSizeLimit int

	// Bundling enables store_batch/retrieve_batch: small chunks coalesce
	// into single storage operations (the v1.4.0 deployment, Sec. 6).
	Bundling bool

	// BundleTargetBytes is how much one bundle packs before it is cut.
	// Zero means DefaultBundleTarget. Only meaningful with Bundling.
	BundleTargetBytes int

	// Dedup enables server-side deduplication: commit_batch answers with
	// need_blocks and only missing chunks cross the wire (Sec. 2.1).
	// Disabling it re-transfers the chunks dedup would have spared.
	Dedup bool

	// DeltaEncoding enables rsync-style delta transfers of changed files
	// (Sec. 2.1). Disabling it re-uploads whole files on every change.
	DeltaEncoding bool

	// Compression enables per-chunk compression before transmission
	// (Sec. 2.1). Disabling it ships chunks at their raw size.
	Compression bool

	// CommitPipelining removes the sequential acknowledgment bottleneck of
	// Sec. 4.4.2: the client issues the next storage operation without
	// waiting for the previous OK, so operations stream back to back and
	// per-operation round trips overlap with data transfer.
	CommitPipelining bool

	// ServerIW is the storage servers' initial congestion window in
	// segments, tuned jointly with client releases (2 before 1.4.0,
	// 3 after). Zero means DefaultServerIW.
	ServerIW int
}

// ChunkLimit returns the effective chunk size limit.
func (p Profile) ChunkLimit() int {
	if p.ChunkSizeLimit <= 0 {
		return chunker.MaxChunkSize
	}
	return p.ChunkSizeLimit
}

// BundleTarget returns the effective bundle byte target.
func (p Profile) BundleTarget() int {
	if p.BundleTargetBytes <= 0 {
		return DefaultBundleTarget
	}
	return p.BundleTargetBytes
}

// IW returns the effective server initial window.
func (p Profile) IW() int {
	if p.ServerIW <= 0 {
		return DefaultServerIW
	}
	return p.ServerIW
}

// String returns the profile name.
func (p Profile) String() string { return p.Name }

// Key renders the full capability vector as a stable one-line string — the
// profile component of the reproducibility key recorded next to seeds and
// shard counts in experiment catalogues.
func (p Profile) Key() string {
	return fmt.Sprintf("%s{chunk=%d bundle=%v/%d dedup=%v delta=%v compress=%v pipeline=%v iw=%d}",
		p.Name, p.ChunkLimit(), p.Bundling, p.BundleTarget(),
		p.Dedup, p.DeltaEncoding, p.Compression, p.CommitPipelining, p.IW())
}

// DropboxV1252 is client 1.2.52 (the Mar/Apr datasets): one chunk per
// sequentially-acknowledged storage operation, 4 MB chunks, dedup, delta
// encoding and compression on, server IW 2. The client of every Mar/Apr
// vantage point.
func DropboxV1252() Profile {
	return Profile{
		Name:           "dropbox-1.2.52",
		ChunkSizeLimit: chunker.MaxChunkSize,
		Dedup:          true,
		DeltaEncoding:  true,
		Compression:    true,
		ServerIW:       2,
	}
}

// DropboxV140 is client 1.4.0 (the Jun/Jul datasets): DropboxV1252 plus
// chunk bundling and the jointly-deployed server IW raise. The client of
// Campus 1's Jun/Jul dataset (Table 4).
func DropboxV140() Profile {
	p := DropboxV1252()
	p.Name = "dropbox-1.4.0"
	p.Bundling = true
	p.BundleTargetBytes = DefaultBundleTarget
	p.ServerIW = 3
	return p
}

// NoDedup is the 1.4.0 client with server-side deduplication disabled:
// every chunk crosses the wire, including the ~17% dedup used to spare.
func NoDedup() Profile {
	p := DropboxV140()
	p.Name = "no-dedup"
	p.Dedup = false
	return p
}

// NoDelta is the 1.4.0 client without delta encoding: changed files
// re-upload whole instead of shipping rsync-style deltas.
func NoDelta() Profile {
	p := DropboxV140()
	p.Name = "no-delta"
	p.DeltaEncoding = false
	return p
}

// BigChunks16MB is the 1.4.0 client with the chunk limit raised to 16 MB
// and the bundle target raised to match: large transfers need a quarter of
// the operations, at the cost of coarser dedup and retransmission units.
func BigChunks16MB() Profile {
	p := DropboxV140()
	p.Name = "big-chunks-16mb"
	p.ChunkSizeLimit = 16 << 20
	p.BundleTargetBytes = 16 << 20
	return p
}

// FullPipeline is the 1.4.0 client with commit pipelining: storage
// operations no longer wait for per-operation acknowledgments, removing
// the duration floor of Sec. 4.4.2.
func FullPipeline() Profile {
	p := DropboxV140()
	p.Name = "full-pipeline"
	p.CommitPipelining = true
	return p
}

// Presets returns the shipped profile catalogue in canonical order: the
// two historical Dropbox clients first, then the hypothetical profiles.
func Presets() []Profile {
	return []Profile{
		DropboxV1252(),
		DropboxV140(),
		NoDedup(),
		NoDelta(),
		BigChunks16MB(),
		FullPipeline(),
	}
}

// Names returns the preset names in catalogue order.
func Names() []string {
	ps := Presets()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}

// aliases maps alternate spellings to preset names, so CLI flags accept
// the paper's version numbers directly.
var aliases = map[string]string{
	"1.2.52":          "dropbox-1.2.52",
	"v1.2.52":         "dropbox-1.2.52",
	"dropbox_v1_2_52": "dropbox-1.2.52",
	"1.4.0":           "dropbox-1.4.0",
	"v1.4.0":          "dropbox-1.4.0",
	"dropbox_v1_4_0":  "dropbox-1.4.0",
	"nodedup":         "no-dedup",
	"nodelta":         "no-delta",
	"bigchunks16mb":   "big-chunks-16mb",
	"fullpipeline":    "full-pipeline",
}

// ByName resolves a preset by name (case-insensitive; version-number
// aliases like "1.4.0" are accepted).
func ByName(name string) (Profile, bool) {
	key := strings.ToLower(strings.TrimSpace(name))
	if canon, ok := aliases[key]; ok {
		key = canon
	}
	for _, p := range Presets() {
		if p.Name == key {
			return p, true
		}
	}
	return Profile{}, false
}

// Parse resolves a comma-separated list of preset names, preserving order
// and rejecting unknown names with the valid catalogue in the error.
func Parse(list string) ([]Profile, error) {
	var out []Profile
	for _, tok := range strings.Split(list, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		p, ok := ByName(tok)
		if !ok {
			valid := Names()
			sort.Strings(valid)
			return nil, fmt.Errorf("unknown capability profile %q (valid: %s)",
				tok, strings.Join(valid, ", "))
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no capability profiles given (valid: %s)",
			strings.Join(Names(), ", "))
	}
	return out, nil
}
