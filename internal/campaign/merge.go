package campaign

import (
	"bufio"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"insidedropbox/internal/traces"
)

// merge is the campaign's one merge loop. It walks the shards in
// canonical order (shard 0 first, each in generation order — exactly
// fleet.StreamRecords' delivery order), waits for each to be committed —
// no wait at all for a resumed shard, or for any shard under Merge —
// streams its part through the spec's export writer into the final
// artifact, verifying the part's bytes against its checkpointed checksum
// on the way, and folds each entry's generation stats in shard-index
// order, as fleet.StreamRecords does. Beside generate it overlaps
// everything but the parts behind the slowest shard. The export lands
// atomically, over whatever export or .tmp a killed run left; a failed or
// cancelled merge leaves neither.
func (r *runner) merge(ctx context.Context) (*Result, error) {
	out := r.cfg.Out
	if out == "" {
		out = filepath.Join(r.dir, "export"+ExportExt(r.spec.Format))
	}

	res := &Result{Spec: r.spec, ExportPath: out}
	streamHash := fnv.New64a()
	err := writeFileAtomicFunc(out, func(f *os.File) error {
		cw := &countWriter{w: io.MultiWriter(f, streamHash), n: &res.ExportBytes}
		bw := bufio.NewWriterSize(cw, 1<<16)
		// The table row cmd/dropsim builds a straight-through export from,
		// so the merged bytes are identical. One worker (inline): on the
		// benchmark's binary merge a two-worker pool read +5 % throughput,
		// inside the inline runs' inter-quartile band (ahead in 4 of 6
		// pairs), for 8 % more allocated bytes per record.
		format, err := traces.LookupFormat(r.spec.Format)
		if err != nil {
			return err
		}
		w := format.New(bw, r.spec.Anonymize, 1)
		for sh := 0; sh < r.spec.Shards; sh++ {
			e, err := r.await(ctx, sh)
			if err != nil {
				return err
			}
			mMergeBacklog.SetMax(int64(r.doneCount() - sh))
			n, err := r.streamPart(e, w)
			if err != nil {
				return err
			}
			res.Records += n
			res.Stats.Merge(e.Stats)
			if sh == 0 {
				r.crash("merge-mid-write", sh)
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		return bw.Flush()
	})
	if err != nil {
		return nil, err
	}
	res.StreamHash = fmt.Sprintf("%016x", streamHash.Sum64())
	mMerges.Inc()
	r.observe(Event{Stage: "merge", Records: res.Records, Done: r.doneCount()})
	return res, nil
}

// await returns shard sh's checkpoint entry, blocking until a worker has
// committed it or ctx ends.
func (r *runner) await(ctx context.Context, sh int) (ShardDone, error) {
	e, ok := r.doneEntry(sh)
	if ok {
		return e, ctx.Err()
	}
	start := time.Now()
	defer func() { mMergeWait.Add(uint64(time.Since(start))) }()
	for !ok {
		select {
		case <-r.wake:
		case <-ctx.Done():
			return e, ctx.Err()
		}
		e, ok = r.doneEntry(sh)
	}
	return e, nil
}

// columnWriter is what the block export formats add to RecordWriter: a
// binary stream copied block to block, columns re-blocked onto the
// export's grid without building a record (traces' WriteFrom).
type columnWriter interface {
	WriteFrom(*traces.BinaryReader) (int, error)
}

// streamPart streams one shard's part file into w, verifying the part's
// byte count and CRC-32C against the checkpoint entry as a side effect of
// the read. A block export takes the part's columns through WriteFrom; CSV,
// which has no columns, gets the part's records a reused block at a time,
// copying what it keeps.
func (r *runner) streamPart(e ShardDone, w traces.RecordWriter) (int, error) {
	pf, err := os.Open(partPath(r.dir, e.Shard))
	if err != nil {
		return 0, fmt.Errorf("campaign: shard %d part: %w", e.Shard, err)
	}
	defer pf.Close()
	hr := &hashReader{r: pf, h: newPartHash()}
	br := traces.NewBinaryReader(hr)
	var n int
	if cw, ok := w.(columnWriter); ok {
		n, err = cw.WriteFrom(br)
	} else {
		n, err = writeRecords(br, w)
	}
	if err != nil {
		return n, fmt.Errorf("campaign: shard %d part: %w", e.Shard, err)
	}
	if got := partHashHex(hr.h); hr.n != e.PartBytes || got != e.PartHash {
		return n, fmt.Errorf("campaign: shard %d part file does not match its checkpoint entry (%d bytes hash %s, recorded %d bytes hash %s) — regenerate the shard",
			e.Shard, hr.n, got, e.PartBytes, e.PartHash)
	}
	if n != e.Records {
		return n, fmt.Errorf("campaign: shard %d part holds %d records, checkpoint recorded %d", e.Shard, n, e.Records)
	}
	return n, nil
}

// writeRecords writes every record of br through w, a block at a time.
func writeRecords(br *traces.BinaryReader, w traces.RecordWriter) (int, error) {
	n := 0
	for {
		recs, err := br.ReadBlock()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		for _, rec := range recs {
			if err := w.Write(rec); err != nil {
				return n, err
			}
			n++
		}
	}
}

// Merge finalizes a campaign directory whose shards were generated by
// planned jobs (or a mix of jobs and in-process runs): it unions every
// checkpoint, requires full shard coverage, and writes the final export.
func Merge(ctx context.Context, spec Spec, dir, out string) (*Result, error) {
	r, err := newRunner(Config{Spec: spec, Dir: dir, Out: out, Resume: true}, checkpointName)
	if err != nil {
		return nil, err
	}
	// Nothing generates here: a shard not committed by now never will be.
	var missing []int
	for sh := 0; sh < r.spec.Shards; sh++ {
		if _, ok := r.doneEntry(sh); !ok {
			missing = append(missing, sh)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("campaign: cannot merge: %d of %d shards incomplete (first missing: %d) — run the remaining jobs first",
			len(missing), r.spec.Shards, missing[0])
	}
	return r.merge(ctx)
}
