// Package traces defines the flow-record schema the probe exports and its
// serializations: the anonymized CSV format mirroring the public release
// of the paper's measurements (traces.simpleweb.org/dropbox) — one row per
// TCP flow with byte/packet/PSH counters, RTT estimates and DPI labels,
// and client addresses anonymized — and a block-columnar binary format
// (see binary.go for the wire format) that is ~3.5x smaller and
// allocation-free on the write side, for population-scale trace exports,
// raw or under the seekable flate archival framing (flate.go). Both block
// framings run on one writer and one reader core (codec.go), and
// LookupFormat is the one table of formats exporters choose from.
//
// Writers never retain the records passed to Write: every format copies
// what it needs before returning, so callers may recycle records (the
// fleet engine's pooled generation path depends on this). Readers return
// the exact records that were written or an error: the block readers
// reject a damaged frame, and the CSV reader (csvreader.go) a row the CSV
// writer could not have produced, naming its row and column.
package traces

import (
	"bufio"
	"io"
	"strconv"
	"time"
	"unicode"
	"unicode/utf8"

	"insidedropbox/internal/wire"
)

// FlowRecord is one monitored TCP flow, as exported by the probe. "Up" is
// the client-to-server direction (outbound from the monitored site).
type FlowRecord struct {
	VP                     string // vantage point name
	Client                 wire.IP
	Server                 wire.IP
	ClientPort, ServerPort uint16

	// Times are offsets from the campaign start.
	FirstPacket time.Duration
	LastPacket  time.Duration
	// Last payload-carrying packet per direction (Appendix A.4 duration
	// accounting).
	LastPayloadUp   time.Duration
	LastPayloadDown time.Duration

	BytesUp, BytesDown     int64 // TCP payload bytes
	PktsUp, PktsDown       int
	PSHUp, PSHDown         int
	RetransUp, RetransDown int

	// MinRTT is the minimum probe<->server round trip (external RTT);
	// RTTSamples counts valid samples (the paper uses flows with >= 10).
	MinRTT     time.Duration
	RTTSamples int

	// DPI labels.
	SNI      string // TLS server name from the ClientHello
	CertName string // certificate common name (e.g. *.dropbox.com)
	FQDN     string // DNS name the client resolved for the server IP

	// Notification-protocol extraction (cleartext flows only).
	NotifyHost       uint64
	NotifyNamespaces []uint32

	SawSYN, SawFIN, SawRST bool
	// ServerClosed reports the server sent the first FIN (passive close of
	// storage flows; chunk-count estimation depends on it, Appendix A.3).
	ServerClosed bool
}

// Duration returns the flow duration from first packet to last packet.
func (r *FlowRecord) Duration() time.Duration { return r.LastPacket - r.FirstPacket }

// The intern table holds at most internEntries strings of at most
// internLen bytes; anything past either cap is allocated per use.
const (
	internEntries = 4096
	internLen     = 256
)

// internTable is the bounded string intern table of the readers: the four
// string columns of an export draw from a few hundred distinct names, so
// a reader allocates each one once per stream, not once per CSV row or
// per block dictionary. The zero value is ready to use.
type internTable map[string]string

// get returns b as a string, allocating only the first time a value is
// seen: a map lookup keyed by string(b) does not allocate.
func (t *internTable) get(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := (*t)[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(*t) < internEntries && len(s) <= internLen {
		if *t == nil {
			*t = make(internTable)
		}
		(*t)[s] = s
	}
	return s
}

// csvColumns is the width of every row of the CSV format.
const csvColumns = 28

// csvHeader lists the exported columns, in order.
var csvHeader = [csvColumns]string{
	"vp", "client", "server", "cport", "sport",
	"first", "last", "last_payload_up", "last_payload_down",
	"bytes_up", "bytes_down", "pkts_up", "pkts_down",
	"psh_up", "psh_down", "retr_up", "retr_down",
	"min_rtt_us", "rtt_samples",
	"sni", "cert", "fqdn",
	"notify_host", "notify_ns",
	"syn", "fin", "rst", "server_closed",
}

// RecordWriter is the streaming sink every trace serialization implements;
// format-agnostic exporters (cmd/dropsim) write through it.
type RecordWriter interface {
	Write(*FlowRecord) error
	Flush() error
}

// RecordReader is the streaming source every trace deserialization
// implements, and what Open returns: Read hands out records until io.EOF;
// Anonymized reports whether the client column read so far was.
type RecordReader interface {
	Read() (*FlowRecord, error)
	Anonymized() bool
}

// Writer streams flow records as CSV. Rows are built with append-based
// field encoding into a reused buffer — byte-identical to encoding/csv
// output (quoting rules included) but allocation-free per record once the
// scratch is warm, where the encoding/csv + strconv.Format path cost
// 13.4 allocs/rec (the pr3 column of PERFORMANCE.md's archived table).
// TestCSVMatchesEncodingCSV pins the byte identity, TestCSVWriteAllocations
// pins the allocation budget.
type Writer struct {
	bw *bufio.Writer
	// Anonymize replaces client addresses with stable opaque tokens, as the
	// public traces do.
	Anonymize   bool
	wroteHeader bool
	err         error

	// Reused per-Write row scratch; records are never retained.
	buf []byte

	// Telemetry tallies, published on Flush.
	nrec   int
	nbytes int64
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w)}
}

// anonToken produces the stable 48-bit anonymization token for an address:
// the FNV-1a hash of "anon-<decimal ip>", the value the CSV format prints
// as "h%012x" and the binary format stores raw.
func anonToken(ip wire.IP) uint64 {
	var buf [24]byte
	b := append(buf[:0], "anon-"...)
	b = strconv.AppendUint(b, uint64(uint32(ip)), 10)
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return h & 0xffffffffffff
}

// anonIP renders the anonymous token for an address.
func anonIP(ip wire.IP) string {
	return string(appendAnonIP(nil, ip))
}

// appendAnonIP appends the "h%012x" rendering of an address's token.
func appendAnonIP(b []byte, ip wire.IP) []byte {
	const hex = "0123456789abcdef"
	tok := anonToken(ip)
	b = append(b, 'h')
	for shift := 44; shift >= 0; shift -= 4 {
		b = append(b, hex[(tok>>shift)&0xf])
	}
	return b
}

// appendIP appends the dotted-quad rendering of an address.
func appendIP(b []byte, ip wire.IP) []byte {
	b = strconv.AppendUint(b, uint64(byte(ip>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(ip>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(ip>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(ip)), 10)
}

// csvFieldNeedsQuotes mirrors encoding/csv's fieldNeedsQuotes for the
// default configuration (Comma ',', no CRLF) — the byte-identity contract
// with the old encoding/csv-based writer depends on matching it exactly.
func csvFieldNeedsQuotes(field string) bool {
	if field == "" {
		return false
	}
	if field == `\.` {
		return true
	}
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c == '\n' || c == '\r' || c == '"' || c == ',' {
			return true
		}
	}
	r1, _ := utf8.DecodeRuneInString(field)
	return unicode.IsSpace(r1)
}

// appendCSVField appends one field, quoting exactly as encoding/csv
// would (quote doubling; \r and \n kept verbatim inside quotes).
func appendCSVField(b []byte, field string) []byte {
	if !csvFieldNeedsQuotes(field) {
		return append(b, field...)
	}
	b = append(b, '"')
	for i := 0; i < len(field); i++ {
		c := field[i]
		if c == '"' {
			b = append(b, '"', '"')
			continue
		}
		b = append(b, c)
	}
	return append(b, '"')
}

// appendBool appends the 0/1 rendering of a flag.
func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, '1')
	}
	return append(b, '0')
}

// Write emits one record.
func (w *Writer) Write(r *FlowRecord) error {
	if w.err != nil {
		return w.err
	}
	if !w.wroteHeader {
		b := w.buf[:0]
		for i, f := range csvHeader {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCSVField(b, f)
		}
		b = append(b, '\n')
		w.buf = b
		if err := w.writeRow(b); err != nil {
			return err
		}
		w.wroteHeader = true
	}
	b := w.buf[:0]
	b = appendCSVField(b, r.VP)
	b = append(b, ',')
	if w.Anonymize {
		b = appendAnonIP(b, r.Client)
	} else {
		b = appendIP(b, r.Client)
	}
	b = append(b, ',')
	b = appendIP(b, r.Server)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.ClientPort), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, uint64(r.ServerPort), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.FirstPacket), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.LastPacket), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.LastPayloadUp), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.LastPayloadDown), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.BytesUp, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.BytesDown, 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.PktsUp), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.PktsDown), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.PSHUp), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.PSHDown), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.RetransUp), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.RetransDown), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, r.MinRTT.Microseconds(), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(r.RTTSamples), 10)
	b = append(b, ',')
	b = appendCSVField(b, r.SNI)
	b = append(b, ',')
	b = appendCSVField(b, r.CertName)
	b = append(b, ',')
	b = appendCSVField(b, r.FQDN)
	b = append(b, ',')
	b = strconv.AppendUint(b, r.NotifyHost, 10)
	b = append(b, ',')
	for i, n := range r.NotifyNamespaces {
		if i > 0 {
			b = append(b, ';')
		}
		b = strconv.AppendUint(b, uint64(n), 10)
	}
	b = append(b, ',')
	b = appendBool(b, r.SawSYN)
	b = append(b, ',')
	b = appendBool(b, r.SawFIN)
	b = append(b, ',')
	b = appendBool(b, r.SawRST)
	b = append(b, ',')
	b = appendBool(b, r.ServerClosed)
	b = append(b, '\n')
	w.buf = b
	w.nrec++
	return w.writeRow(b)
}

// writeRow pushes one encoded row into the buffered writer.
func (w *Writer) writeRow(b []byte) error {
	n, err := w.bw.Write(b)
	w.nbytes += int64(n)
	if err != nil {
		w.err = err
	}
	return err
}

// Flush finishes the stream and publishes the accumulated record/byte
// telemetry.
func (w *Writer) Flush() error {
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if w.nrec > 0 {
		mCSVRecords.Add(uint64(w.nrec))
		w.nrec = 0
	}
	if w.nbytes > 0 {
		mCSVBytes.Add(uint64(w.nbytes))
		w.nbytes = 0
	}
	return w.err
}
