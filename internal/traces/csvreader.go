package traces

// The read side of the CSV format: a strict reader in the style of the
// append-based Writer in traces.go. Rows are borrowed from a bufio window
// and split in place, numbers are parsed from bytes with explicit range
// checks, and every row the Writer could not have produced is an error
// naming its row and column — never a silently zeroed field.

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"insidedropbox/internal/wire"
)

const (
	// csvWindow is the bufio window rows are borrowed from; only a line
	// longer than this is copied before it is split.
	csvWindow = 64 << 10
	// maxCSVRow caps one row (all of its lines, when a quoted field spans
	// several), and with it every scratch buffer and namespace list the
	// reader sizes from its input.
	maxCSVRow = 16 << 20
)

// CSVError reports the first row a Reader could not accept.
type CSVError struct {
	Row    int    // 1-based; the header is row 1
	Column string // csvHeader name, "" when the row as a whole is malformed
	Reason string
}

func (e *CSVError) Error() string {
	if e.Column == "" {
		return fmt.Sprintf("traces: csv row %d: %s", e.Row, e.Reason)
	}
	return fmt.Sprintf("traces: csv row %d, column %s: %s", e.Row, e.Column, e.Reason)
}

// errLongRow is readLine's report that a line outgrew maxCSVRow.
var errLongRow = errors.New("row too long")

// Reader parses flow-record CSV back into records, accepting exactly the
// rows Writer emits under the default encoding/csv grammar: the header
// must be the format's own, every row has 28 fields, and every field must
// parse and fit its column's Go type. An anonymized client column (the
// h+12-hex token of the public traces) reads as Client == 0 and sets
// Anonymized; the token itself is not kept.
type Reader struct {
	br   *bufio.Reader
	row  int   // rows read so far, header included
	err  error // sticky: the first failure, or io.EOF
	anon bool

	// The current row: field i is line[ends[i-1]+1 : ends[i]], one
	// separator byte between neighbours. line is borrowed from the bufio
	// window, long or unq until the next row is read.
	line []byte
	ends [csvColumns]int
	long []byte // a line longer than the bufio window
	unq  []byte // the decoded fields of a row that has quoted ones

	strs internTable // the four string columns
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, csvWindow)}
}

// Anonymized reports whether any row read so far carried an anonymization
// token in its client column.
func (r *Reader) Anonymized() bool { return r.anon }

// Read returns the next record, or io.EOF. The record is freshly
// allocated and never aliases reader state. The first malformed row is
// returned as a *CSVError, and every later call repeats it.
func (r *Reader) Read() (*FlowRecord, error) {
	if r.err != nil {
		return nil, r.err
	}
	rec, err := r.read()
	if err != nil {
		r.err = err
	}
	return rec, err
}

func (r *Reader) read() (*FlowRecord, error) {
	if r.row == 0 {
		// An export of zero records is an empty file (Writer emits the
		// header with the first record), so EOF here is a clean end.
		if err := r.readRow(); err != nil {
			return nil, err
		}
		for i, want := range csvHeader {
			if got := r.field(i); string(got) != want {
				return nil, &CSVError{r.row, want, fmt.Sprintf("header reads %s", quoteField(got))}
			}
		}
	}
	if err := r.readRow(); err != nil {
		return nil, err
	}
	c := rowCursor{line: r.line, ends: &r.ends, bad: -1}
	rec := &FlowRecord{}
	rec.VP = r.strs.get(c.field())
	var tok bool
	rec.Client, tok = c.client()
	rec.Server = c.server()
	rec.ClientPort = c.port()
	rec.ServerPort = c.port()
	rec.FirstPacket = time.Duration(c.int64())
	rec.LastPacket = time.Duration(c.int64())
	rec.LastPayloadUp = time.Duration(c.int64())
	rec.LastPayloadDown = time.Duration(c.int64())
	rec.BytesUp = c.int64()
	rec.BytesDown = c.int64()
	rec.PktsUp = c.int()
	rec.PktsDown = c.int()
	rec.PSHUp = c.int()
	rec.PSHDown = c.int()
	rec.RetransUp = c.int()
	rec.RetransDown = c.int()
	const maxUs = math.MaxInt64 / int64(time.Microsecond)
	rec.MinRTT = time.Duration(c.intIn(-maxUs, maxUs, "a microsecond count a Duration can hold")) * time.Microsecond
	rec.RTTSamples = c.int()
	rec.SNI = r.strs.get(c.field())
	rec.CertName = r.strs.get(c.field())
	rec.FQDN = r.strs.get(c.field())
	rec.NotifyHost = c.uint(math.MaxUint64, "an unsigned 64-bit decimal integer")
	rec.NotifyNamespaces = c.namespaces()
	rec.SawSYN = c.flag()
	rec.SawFIN = c.flag()
	rec.SawRST = c.flag()
	rec.ServerClosed = c.flag()
	if c.bad >= 0 {
		return nil, &CSVError{r.row, csvHeader[c.bad],
			fmt.Sprintf("%s is not %s", quoteField(r.field(c.bad)), c.want)}
	}
	r.anon = r.anon || tok
	return rec, nil
}

// quoteField renders a rejected field for an error message, clipped so a
// hostile row cannot make the message as large as itself.
func quoteField(b []byte) string {
	if len(b) > 40 {
		return fmt.Sprintf("%q...", b[:40])
	}
	return fmt.Sprintf("%q", b)
}

// ---------- rows ----------

// field returns column i of the current row.
func (r *Reader) field(i int) []byte {
	if i == 0 {
		return r.line[:r.ends[0]]
	}
	return r.line[r.ends[i-1]+1 : r.ends[i]]
}

// rowErr is a failure of the current row as a whole.
func (r *Reader) rowErr(reason string) error { return &CSVError{Row: r.row, Reason: reason} }

// quoteErr is a quoting failure in the current row's field n.
func (r *Reader) quoteErr(n int, reason string) error {
	if n >= csvColumns {
		return r.rowErr(reason)
	}
	return &CSVError{r.row, csvHeader[n], reason}
}

// lineErr turns a readLine failure inside the current row into the
// reader's error.
func (r *Reader) lineErr(err error) error {
	if err == errLongRow {
		return r.rowErr(fmt.Sprintf("longer than %d bytes", maxCSVRow))
	}
	return fmt.Errorf("traces: csv row %d: %w", r.row, err)
}

// readLine returns the next physical line without its "\n" or "\r\n";
// like encoding/csv, a final unterminated line loses one trailing "\r"
// too. The bytes are borrowed until the next call.
func (r *Reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		r.long = append(r.long[:0], line...)
		for err == bufio.ErrBufferFull {
			if len(r.long) > maxCSVRow {
				return nil, errLongRow
			}
			line, err = r.br.ReadSlice('\n')
			r.long = append(r.long, line...)
		}
		line = r.long
	}
	if err != nil && (err != io.EOF || len(line) == 0) {
		return nil, err
	}
	if n := len(line); line[n-1] == '\n' {
		line = line[:n-1]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// readRow reads one row into r.line and r.ends. A row without a quote is
// split where it lies; the first quote hands the row to readQuotedRow.
func (r *Reader) readRow() error {
	line, err := r.readLine()
	if err == io.EOF {
		return err
	}
	r.row++
	if err != nil {
		return r.lineErr(err)
	}
	if len(line) == 0 {
		return r.rowErr("blank line")
	}
	n := 0
	for i, c := range line {
		switch c {
		case ',':
			if n < csvColumns {
				r.ends[n] = i
			}
			n++
		case '"':
			return r.readQuotedRow(line)
		}
	}
	if n < csvColumns {
		r.ends[n] = len(line)
	}
	r.line = line
	return r.checkWidth(n + 1)
}

func (r *Reader) checkWidth(n int) error {
	if n != csvColumns {
		return r.rowErr(fmt.Sprintf("%d fields, want %d", n, csvColumns))
	}
	return nil
}

// readQuotedRow splits a row that contains a quote, with the grammar of
// encoding/csv's defaults (what Writer emits): a field that starts with a
// quote runs to its closing quote — across commas and line ends, "" being
// one quote, a "\r\n" line end read as "\n" — and must be followed by a
// comma or the end of the row; any other quote is an error. The decoded
// fields are laid out in r.unq, a separator byte after each.
func (r *Reader) readQuotedRow(line []byte) error {
	buf := r.unq[:0]
	defer func() { r.unq = buf }()
	n, size := 0, len(line)
	for {
		if len(line) == 0 || line[0] != '"' {
			field := line
			i := bytes.IndexByte(line, ',')
			if i >= 0 {
				field = line[:i]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				return r.quoteErr(n, `bare " in an unquoted field`)
			}
			if n < csvColumns {
				r.ends[n] = len(buf) + len(field)
			}
			buf = append(append(buf, field...), ',')
			n++
			if i < 0 {
				break
			}
			line = line[i+1:]
			continue
		}
		line = line[1:]
		for {
			i := bytes.IndexByte(line, '"')
			if i < 0 {
				// The field runs on into the next line; after the one
				// line that can lack its "\n", the last, that is EOF.
				buf = append(append(buf, line...), '\n')
				var err error
				if line, err = r.readLine(); err == io.EOF {
					return r.quoteErr(n, "unterminated quoted field")
				} else if err != nil {
					return r.lineErr(err)
				}
				if size += len(line) + 1; size > maxCSVRow {
					return r.lineErr(errLongRow)
				}
				continue
			}
			buf = append(buf, line[:i]...)
			line = line[i+1:]
			if len(line) == 0 || line[0] != '"' {
				break
			}
			buf = append(buf, '"')
			line = line[1:]
		}
		if len(line) > 0 && line[0] != ',' {
			return r.quoteErr(n, `text after a closing "`)
		}
		if n < csvColumns {
			r.ends[n] = len(buf)
		}
		buf = append(buf, ',')
		n++
		if len(line) == 0 {
			break
		}
		line = line[1:]
	}
	r.line = buf
	return r.checkWidth(n)
}

// ---------- fields ----------

// rowCursor walks one row's fields in column order. Each typed getter
// consumes a field; the first one that fails records its column and what
// it wanted, and the row is rejected after the walk.
type rowCursor struct {
	line []byte
	ends *[csvColumns]int
	next int // column the next getter consumes
	pos  int // where it starts in line
	bad  int // first column that failed, -1 while none has
	want string
}

func (c *rowCursor) field() []byte {
	end := c.ends[c.next]
	f := c.line[c.pos:end]
	c.next, c.pos = c.next+1, end+1
	return f
}

func (c *rowCursor) fail(want string) {
	if c.bad < 0 {
		c.bad, c.want = c.next-1, want
	}
}

func (c *rowCursor) uint(max uint64, want string) uint64 {
	v, ok := parseUint(c.field())
	if !ok || v > max {
		c.fail(want)
	}
	return v
}

func (c *rowCursor) port() uint16 {
	return uint16(c.uint(math.MaxUint16, "a port, 0 to 65535"))
}

func (c *rowCursor) intIn(min, max int64, want string) int64 {
	v, ok := parseInt(c.field())
	if !ok || v < min || v > max {
		c.fail(want)
	}
	return v
}

func (c *rowCursor) int64() int64 {
	return c.intIn(math.MinInt64, math.MaxInt64, "a 64-bit decimal integer")
}

func (c *rowCursor) int() int {
	return int(c.intIn(math.MinInt, math.MaxInt, "a decimal integer"))
}

func (c *rowCursor) flag() bool {
	f := c.field()
	if len(f) != 1 || (f[0] != '0' && f[0] != '1') {
		c.fail("0 or 1")
		return false
	}
	return f[0] == '1'
}

// client parses the client column: a dotted quad, or the anonymization
// token, which reads as address 0 and tok true.
func (c *rowCursor) client() (ip wire.IP, tok bool) {
	f := c.field()
	if isAnonToken(f) {
		return 0, true
	}
	ip, ok := parseIP(f)
	if !ok {
		c.fail("a dotted quad or an h+12-hex token")
	}
	return ip, false
}

func (c *rowCursor) server() wire.IP {
	ip, ok := parseIP(c.field())
	if !ok {
		c.fail("a dotted quad")
	}
	return ip
}

// namespaces parses the ;-separated notify_ns list into a slice of exactly
// its length; an empty field is no list.
func (c *rowCursor) namespaces() []uint32 {
	f := c.field()
	if len(f) == 0 {
		return nil
	}
	ns := make([]uint32, 0, bytes.Count(f, []byte{';'})+1)
	for {
		part := f
		i := bytes.IndexByte(f, ';')
		if i >= 0 {
			part = f[:i]
		}
		v, ok := parseUint(part)
		if !ok || v > math.MaxUint32 {
			c.fail("a ;-separated list of unsigned 32-bit decimal integers")
			return nil
		}
		ns = append(ns, uint32(v))
		if i < 0 {
			return ns
		}
		f = f[i+1:]
	}
}

// parseUint parses b as an unsigned decimal integer: digits only, at
// least one, no sign, and no overflow.
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 {
		return 0, false
	}
	var v uint64
	for i, ch := range b {
		d := uint64(ch - '0') // wraps past 9 below '0'
		// Nineteen digits cannot overflow; only a twentieth is checked.
		if d > 9 || (i >= 19 && v > (math.MaxUint64-d)/10) {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

// parseInt is parseUint with an optional leading '-'.
func parseInt(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	v, ok := parseUint(b)
	switch {
	case !ok:
		return 0, false
	case neg && v <= 1<<63:
		return -int64(v), true // -(1<<63) wraps onto itself
	case !neg && v <= math.MaxInt64:
		return int64(v), true
	}
	return 0, false
}

// parseIP parses a dotted quad: four decimal octets of one to three
// digits, each at most 255.
func parseIP(b []byte) (wire.IP, bool) {
	var ip uint32
	for octet := 0; octet < 4; octet++ {
		part := b
		i := bytes.IndexByte(b, '.')
		if (i >= 0) != (octet < 3) {
			return 0, false
		}
		if i >= 0 {
			part, b = b[:i], b[i+1:]
		}
		v, ok := parseUint(part)
		if !ok || len(part) > 3 || v > 255 {
			return 0, false
		}
		ip = ip<<8 | uint32(v)
	}
	return wire.IP(ip), true
}

// isAnonToken reports whether b is an anonymized client as appendAnonIP
// renders it: 'h' and twelve lower-case hex digits.
func isAnonToken(b []byte) bool {
	if len(b) != 13 || b[0] != 'h' {
		return false
	}
	for _, ch := range b[1:] {
		if (ch < '0' || ch > '9') && (ch < 'a' || ch > 'f') {
			return false
		}
	}
	return true
}
