package traces

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
)

// Format is one row of the trace-format table, the single place that
// decides which serializations exist, what their files are called and how
// they are written and read: exporters (cmd/dropsim, internal/campaign)
// look a format name up here, and Open looks up a stream's Magic.
type Format struct {
	Name  string // the value of a -format flag or a campaign spec's format
	Ext   string // conventional file extension, dot included
	Magic string // the stream's first bytes; "" for CSV, which has none
	// New builds the format's writer over w. workers sizes block encoding
	// for the block formats: <= 0 means GOMAXPROCS, 1 encodes on the
	// caller's goroutine with no goroutines at all, and the bytes are the
	// same for every value. CSV ignores it.
	New       func(w io.Writer, anonymize bool, workers int) RecordWriter
	NewReader func(r io.Reader) RecordReader // the format's reader over r
}

var formats = []Format{
	{"csv", ".csv", "", func(w io.Writer, anonymize bool, _ int) RecordWriter {
		cw := NewWriter(w)
		cw.Anonymize = anonymize
		return cw
	}, func(r io.Reader) RecordReader { return NewReader(r) }},
	{"binary", ".idb", string(binaryMagic[:]), func(w io.Writer, anonymize bool, workers int) RecordWriter {
		bw := NewParallelBinaryWriter(w, encodeWorkers(workers))
		bw.Anonymize = anonymize
		return bw
	}, func(r io.Reader) RecordReader { return NewBinaryReader(r) }},
	{"binary-flate", ".idbf", string(flateMagic[:]), func(w io.Writer, anonymize bool, workers int) RecordWriter {
		fw := NewFlateWriter(w, encodeWorkers(workers))
		fw.Anonymize = anonymize
		return fw
	}, func(r io.Reader) RecordReader { return NewFlateReader(r) }},
}

// Open returns the reader of the format r holds, picked by its first
// bytes: a block magic selects that format, anything else (an empty stream
// too) goes to CSV, whose strict header check is the only validation. The
// reader gets r itself when r can seek back over the peeked bytes, so a
// flate reader over a file keeps SeekToRecord; otherwise (a pipe) it gets
// the peeked bytes, then the rest of r. Only a failed read is an error.
func Open(r io.Reader) (RecordReader, error) {
	var peek [len(binaryMagic)]byte
	n, err := io.ReadFull(r, peek[:])
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	src := io.MultiReader(bytes.NewReader(peek[:n]), r)
	if s, ok := r.(io.Seeker); ok {
		if _, err := s.Seek(-int64(n), io.SeekCurrent); err == nil {
			src = r
		}
	}
	var fallback Format
	for _, f := range formats {
		switch f.Magic {
		case string(peek[:n]):
			return f.NewReader(src), nil
		case "":
			fallback = f
		}
	}
	return fallback.NewReader(src), nil
}

// encodeWorkers resolves a requested block-encoding worker count.
func encodeWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// LookupFormat returns the table row for name; the error of an unknown
// name lists the valid ones.
func LookupFormat(name string) (Format, error) {
	valid := ""
	for _, f := range formats {
		if f.Name == name {
			return f, nil
		}
		valid += ", " + f.Name
	}
	return Format{}, fmt.Errorf("traces: unknown format %q (valid: %s)", name, valid[2:])
}
