package traces

import (
	"fmt"
	"io"
	"runtime"
)

// Format is one row of the trace-format table, the single place that
// decides which serializations exist, what their files are called and how
// their writers are built: exporters (cmd/dropsim, internal/campaign) take
// a format name as data and look it up here.
type Format struct {
	Name string // the value of a -format flag or a campaign spec's format
	Ext  string // conventional file extension, dot included
	// New builds the format's writer over w. workers sizes block encoding
	// for the block formats: <= 0 means GOMAXPROCS, 1 encodes on the
	// caller's goroutine with no goroutines at all, and the bytes are the
	// same for every value. CSV ignores it.
	New func(w io.Writer, anonymize bool, workers int) RecordWriter
}

var formats = []Format{
	{"csv", ".csv", func(w io.Writer, anonymize bool, _ int) RecordWriter {
		cw := NewWriter(w)
		cw.Anonymize = anonymize
		return cw
	}},
	{"binary", ".idb", func(w io.Writer, anonymize bool, workers int) RecordWriter {
		bw := NewParallelBinaryWriter(w, encodeWorkers(workers))
		bw.Anonymize = anonymize
		return bw
	}},
	{"binary-flate", ".idbf", func(w io.Writer, anonymize bool, workers int) RecordWriter {
		fw := NewFlateWriter(w, encodeWorkers(workers))
		fw.Anonymize = anonymize
		return fw
	}},
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
