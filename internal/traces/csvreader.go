package traces

// The read side of the CSV format: a strict reader in the style of the
// append-based Writer in traces.go. The caller cuts the input into
// row-aligned chunks; each chunk is parsed in a slot of the ordered ring
// (ring.go) into one slab of records, its rows split in place and its
// numbers parsed from bytes with explicit range checks; and Read hands the
// records out in stream order. Every row the Writer could not have
// produced is an error naming its row and column — never a silently
// zeroed field — and the records and the error are the same for every
// ring size.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"insidedropbox/internal/wire"
)

const (
	// csvChunkSize is what the reader reads a chunk at; a row that does
	// not end within it grows its slot's buffer.
	csvChunkSize = 256 << 10
	// maxCSVRow caps one row (all of its lines, when a quoted field spans
	// several, but not the line end that closes it), and with it every
	// buffer and namespace list the reader sizes from its input.
	maxCSVRow = 16 << 20
	// maxCSVChunk caps a slot's buffer: the longest row and its "\r\n".
	maxCSVChunk = maxCSVRow + 2
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

// Reader parses flow-record CSV back into records, accepting exactly the
// rows Writer emits under the default encoding/csv grammar: the header
// must be the format's own, every row has 28 fields, and every field must
// parse and fit its column's Go type. An anonymized client column (the
// h+12-hex token of the public traces) reads as Client == 0 and sets
// Anonymized; the token itself is not kept.
//
// The input is read ahead in chunks of about 256 KiB, parsed on
// GOMAXPROCS goroutines that end with their chunk (inline at
// GOMAXPROCS=1), so a Reader dropped at any point owns no goroutine once
// its in-flight chunks are parsed.
type Reader struct {
	src     io.Reader
	ring    ring[csvChunk] // GOMAXPROCS+1 slots, or one worked inline
	carry   []byte         // the row the last chunk cut off, in that chunk's buffer
	opened  bool           // the first chunk, which holds the header, is claimed
	drained bool           // the last chunk is claimed: the source ended or failed, or a row outgrew the cap
	row     int            // rows of the chunks taken, header included
	anon    bool

	recs []FlowRecord // the current chunk's records, handed out in order
	next int
	tok  int   // index in recs of the chunk's first anonymized row, -1 when none
	end  error // what follows recs: the chunk's bad row, the source's failure, io.EOF, or nil
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{src: r, ring: ring[csvChunk]{size: ringSize(runtime.GOMAXPROCS(0)), work: (*csvChunk).parse}}
}

// Anonymized reports whether any row returned so far carried an
// anonymization token in its client column.
func (r *Reader) Anonymized() bool { return r.anon }

// Read returns the next record, or io.EOF. The reader never touches a
// record again once it is returned, and no record aliases reader state;
// the records of one chunk share one allocation. The first malformed row
// is returned as a *CSVError, after every record before it, and every
// later call repeats it.
func (r *Reader) Read() (*FlowRecord, error) {
	for r.next == len(r.recs) {
		if r.end != nil {
			return nil, r.end
		}
		r.take()
	}
	if r.next == r.tok {
		r.anon = true
	}
	rec := &r.recs[r.next]
	r.next++
	return rec, nil
}

// take moves on to the next chunk: it reads and starts as many chunks as
// the ring has free slots, then waits for the oldest, whose bad row's
// number becomes absolute here, where the rows before it are known.
func (r *Reader) take() {
	q := &r.ring
	for !r.drained && q.n < q.size {
		r.fill(q.claim())
		q.start(q.n-1, q.size == 1)
	}
	c, _ := q.pop()
	r.recs, r.next, r.tok, r.end = c.recs, 0, c.tok, nil
	c.recs = nil // the slab is the caller's now
	switch {
	case c.err != nil:
		c.err.Row += r.row
		r.end = c.err
	case c.srcErr != nil:
		r.end = fmt.Errorf("traces: csv row %d: %w", r.row+c.rows+1, c.srcErr)
	case c.final:
		r.end = io.EOF
		r.release()
	}
	r.row += c.rows
}

// csvScratches keeps the slot scratch of readers that reached the end of
// their input for the next reader: a reader's buffers and intern tables,
// about GOMAXPROCS+1 times csvChunkSize, need not be paid per file by a
// run that reads many.
var csvScratches = sync.Pool{New: func() any { return new(csvScratch) }}

// release hands the slots' scratch to csvScratches once the last chunk is
// taken, when no slot is in flight and no record or carry points into
// it. Scratch that a long row grew is left to the collector.
func (r *Reader) release() {
	for _, s := range r.ring.slots {
		if cap(s.v.buf) == csvChunkSize {
			csvScratches.Put(s.v.csvScratch)
		}
		s.v.csvScratch = nil
	}
}

// fill reads the next chunk into c: the row the previous chunk cut off,
// then the source until the buffer is full, cut after its last whole row.
// A buffer that holds no whole row grows, up to maxCSVChunk. The source's
// end or failure, or a row that does not end within the cap, makes c the
// last chunk.
func (r *Reader) fill(c *csvChunk) {
	c.first, c.final, c.srcErr = !r.opened, false, nil
	r.opened = true
	if c.csvScratch == nil {
		c.csvScratch = csvScratches.Get().(*csvScratch)
	}
	limit := max(csvChunkSize, len(r.carry))
	if cap(c.buf) < limit {
		c.buf = make([]byte, 0, limit)
	}
	// With one slot, carry lies in c.buf itself: copy moves it down.
	c.buf = c.buf[:copy(c.buf[:len(r.carry)], r.carry)]
	r.carry = nil
	for {
		n, err := readFull(r.src, c.buf[len(c.buf):limit])
		c.buf = c.buf[:len(c.buf)+n]
		c.breaks, c.cut = rowBreaks(c.buf)
		if err == io.EOF {
			r.drained, c.final, c.cut = true, true, len(c.buf)
			return
		}
		if err != nil {
			r.drained, c.srcErr = true, err
			return
		}
		if c.cut > 0 {
			break
		}
		if limit == maxCSVChunk {
			// No row ends within the cap: the parse refuses the first one.
			r.drained, c.cut = true, len(c.buf)
			return
		}
		limit = min(2*limit, maxCSVChunk)
		if cap(c.buf) < limit {
			c.buf = append(make([]byte, 0, limit), c.buf...)
		}
	}
	r.carry = c.buf[c.cut:]
}

// readFull reads into b until it is full or the source fails; io.EOF
// reports a source that ended. (io.ReadFull reports a short read as
// io.ErrUnexpectedEOF, which a failing source can return too.)
func readFull(src io.Reader, b []byte) (int, error) {
	n := 0
	for n < len(b) {
		m, err := src.Read(b[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// rowBreaks counts the newlines of b that end rows — those outside quoted
// fields, counting quotes from b's start, a row boundary — and returns
// where the last of them ends, 0 when none does. It leaps from quote to
// quote: the newlines between a closing quote and the next opening one (a
// doubled quote closes and reopens) are the ones that end rows. A quote
// the grammar does not allow can only throw the count off after a row the
// parse refuses.
func rowBreaks(b []byte) (rows, end int) {
	for i := 0; ; {
		out := b[i:]
		q := bytes.IndexByte(out, '"')
		if q >= 0 {
			out = out[:q]
		}
		if j := bytes.LastIndexByte(out, '\n'); j >= 0 {
			rows, end = rows+bytes.Count(out, []byte{'\n'}), i+j+1
		}
		if q < 0 {
			return rows, end
		}
		i += q + 1
		c := bytes.IndexByte(b[i:], '"')
		if c < 0 {
			return rows, end
		}
		i += c + 1
	}
}

// ---------- chunks ----------

// csvChunk is one row-aligned piece of the input in a ring slot. The
// caller reads it into buf and cuts it; the slot's work parses buf[:cut]
// into a fresh slab of records and a capacity-capped namespace slab.
type csvChunk struct {
	*csvScratch
	cut    int
	breaks int   // the newlines in buf that end rows, which bounds the records
	first  bool  // the chunk opens the stream: its first row is the header
	final  bool  // the input ends with the chunk: its last line needs no line end
	srcErr error // the source failed after the chunk; buf[cut:] is a part row

	recs []FlowRecord
	rows int       // rows parsed, header and a bad row included
	tok  int       // index in recs of the first anonymized row, -1 when none
	err  *CSVError // the first bad row; Row counts from the chunk's start

	// The current row: field i is line[ends[i-1]+1 : ends[i]], one
	// separator byte between neighbours. line lies in buf, or in unq when
	// the row has a quoted field.
	line []byte
	ends [csvColumns]int
}

// csvScratch is what a slot reuses from chunk to chunk: nothing in it is
// handed out.
type csvScratch struct {
	buf   []byte
	unq   []byte      // the decoded fields of a row that has quoted ones
	ns    []uint32    // the chunk's namespace lists, end to end, until the slab takes them
	names internTable // the four string columns; the slot's own, so it takes no lock
}

// parse makes the records of the chunk's rows, up to its first bad row.
func (c *csvChunk) parse() {
	data := c.buf[:c.cut]
	// Every row the parse accepts is at least csvColumns bytes long, which
	// keeps a chunk of blank lines from sizing a slab 232 times its size.
	c.recs, c.ns = make([]FlowRecord, 0, min(c.breaks, c.cut/csvColumns)+1), c.ns[:0]
	c.rows, c.tok, c.err = 0, -1, nil
	for pos := 0; pos < len(data) && c.err == nil; {
		c.rows++
		pos = c.split(data, pos)
		switch {
		case c.err != nil:
		case c.first && c.rows == 1:
			c.header()
		default:
			c.record()
		}
	}
	// Each list points into c.ns, appended in record order; one slab of
	// exactly their total takes them over, capacity-capped, so appending
	// to one record's list cannot write into its neighbour's.
	if len(c.ns) > 0 {
		ns := append([]uint32(nil), c.ns...)
		for i := range c.recs {
			if m := len(c.recs[i].NotifyNamespaces); m > 0 {
				c.recs[i].NotifyNamespaces, ns = ns[:m:m], ns[m:]
			}
		}
	}
}

func (c *csvChunk) header() {
	for i, want := range csvHeader {
		if got := c.field(i); string(got) != want {
			c.err = &CSVError{c.rows, want, fmt.Sprintf("header reads %s", quoteField(got))}
			return
		}
	}
}

// record parses the current row into the next record of the slab.
func (c *csvChunk) record() {
	nsFrom := len(c.ns)
	c.recs = append(c.recs, FlowRecord{})
	rec := &c.recs[len(c.recs)-1]
	f := rowCursor{line: c.line, ends: &c.ends, bad: -1}
	rec.VP = c.names.get(f.field())
	var tok bool
	rec.Client, tok = f.client()
	rec.Server = f.server()
	rec.ClientPort = f.port()
	rec.ServerPort = f.port()
	rec.FirstPacket = time.Duration(f.int64())
	rec.LastPacket = time.Duration(f.int64())
	rec.LastPayloadUp = time.Duration(f.int64())
	rec.LastPayloadDown = time.Duration(f.int64())
	rec.BytesUp = f.int64()
	rec.BytesDown = f.int64()
	rec.PktsUp = f.int()
	rec.PktsDown = f.int()
	rec.PSHUp = f.int()
	rec.PSHDown = f.int()
	rec.RetransUp = f.int()
	rec.RetransDown = f.int()
	const maxUs = math.MaxInt64 / int64(time.Microsecond)
	rec.MinRTT = time.Duration(f.intIn(-maxUs, maxUs, "a microsecond count a Duration can hold")) * time.Microsecond
	rec.RTTSamples = f.int()
	rec.SNI = c.names.get(f.field())
	rec.CertName = c.names.get(f.field())
	rec.FQDN = c.names.get(f.field())
	rec.NotifyHost = f.uint(math.MaxUint64, "an unsigned 64-bit decimal integer")
	rec.NotifyNamespaces = f.namespaces(&c.ns)
	rec.SawSYN = f.flag()
	rec.SawFIN = f.flag()
	rec.SawRST = f.flag()
	rec.ServerClosed = f.flag()
	if f.bad >= 0 {
		c.recs, c.ns = c.recs[:len(c.recs)-1], c.ns[:nsFrom]
		c.err = &CSVError{c.rows, csvHeader[f.bad],
			fmt.Sprintf("%s is not %s", quoteField(c.field(f.bad)), f.want)}
		return
	}
	if tok && c.tok < 0 {
		c.tok = len(c.recs) - 1
	}
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
func (c *csvChunk) field(i int) []byte {
	if i == 0 {
		return c.line[:c.ends[0]]
	}
	return c.line[c.ends[i-1]+1 : c.ends[i]]
}

// rowErr is a failure of the current row as a whole.
func (c *csvChunk) rowErr(reason string) {
	c.err = &CSVError{Row: c.rows, Reason: reason}
}

// tooLong refuses the current row for its length.
func (c *csvChunk) tooLong() { c.rowErr(fmt.Sprintf("longer than %d bytes", maxCSVRow)) }

// quoteErr is a quoting failure in the current row's field n.
func (c *csvChunk) quoteErr(n int, reason string) {
	if n >= csvColumns {
		c.rowErr(reason)
		return
	}
	c.err = &CSVError{c.rows, csvHeader[n], reason}
}

// nextLine returns the line at data[pos:] without its "\n" or "\r\n",
// and where the next one starts; like encoding/csv, a final unterminated
// line loses one trailing "\r" too. ok is false for a line that runs off
// the end of a chunk the input goes on after, which only a row that
// outgrew the cap can do.
func (c *csvChunk) nextLine(data []byte, pos int) (line []byte, next int, ok bool) {
	line, next = data[pos:], len(data)
	if i := bytes.IndexByte(line, '\n'); i >= 0 {
		line, next = line[:i], pos+i+1
	} else if !c.final {
		return nil, 0, false
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, next, true
}

// split splits the row at data[pos:] into c.line and c.ends and returns
// where the next row starts. A row without a quote is split where it
// lies; the first quote hands the row to splitQuoted.
func (c *csvChunk) split(data []byte, pos int) int {
	line, next, ok := c.nextLine(data, pos)
	if !ok || len(line) > maxCSVRow {
		c.tooLong()
		return next
	}
	if len(line) == 0 {
		c.rowErr("blank line")
		return next
	}
	n := 0
	for i, ch := range line {
		switch ch {
		case ',':
			if n < csvColumns {
				c.ends[n] = i
			}
			n++
		case '"':
			return c.splitQuoted(data, pos, line, next)
		}
	}
	if n < csvColumns {
		c.ends[n] = len(line)
	}
	c.line = line
	c.checkWidth(n + 1)
	return next
}

func (c *csvChunk) checkWidth(n int) {
	if n != csvColumns {
		c.rowErr(fmt.Sprintf("%d fields, want %d", n, csvColumns))
	}
}

// splitQuoted splits a row that starts at data[start:], whose first line
// is line and contains a quote, with the grammar of encoding/csv's
// defaults (what Writer emits): a field that starts with a quote runs to
// its closing quote — across commas and line ends, "" being one quote, a
// "\r\n" line end read as "\n" — and must be followed by a comma or the
// end of the row; any other quote is an error. The decoded fields are laid
// out in c.unq, a separator byte after each.
func (c *csvChunk) splitQuoted(data []byte, start int, line []byte, next int) int {
	buf := c.unq[:0]
	defer func() { c.unq = buf }()
	n := 0
	for {
		if len(line) == 0 || line[0] != '"' {
			field := line
			i := bytes.IndexByte(line, ',')
			if i >= 0 {
				field = line[:i]
			}
			if bytes.IndexByte(field, '"') >= 0 {
				c.quoteErr(n, `bare " in an unquoted field`)
				return next
			}
			if n < csvColumns {
				c.ends[n] = len(buf) + len(field)
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
				// line that can lack its "\n", the last, that is the end.
				buf = append(append(buf, line...), '\n')
				if next == len(data) && c.final {
					c.quoteErr(n, "unterminated quoted field")
					return next
				}
				at, ok := next, false
				if line, next, ok = c.nextLine(data, at); !ok || at-start+len(line) > maxCSVRow {
					c.tooLong()
					return next
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
			c.quoteErr(n, `text after a closing "`)
			return next
		}
		if n < csvColumns {
			c.ends[n] = len(buf)
		}
		buf = append(buf, ',')
		n++
		if len(line) == 0 {
			break
		}
		line = line[1:]
	}
	c.line = buf
	c.checkWidth(n)
	return next
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

// namespaces parses the ;-separated notify_ns list onto the end of *ns and
// returns it, capacity-capped; an empty field is no list.
func (c *rowCursor) namespaces(ns *[]uint32) []uint32 {
	f := c.field()
	if len(f) == 0 {
		return nil
	}
	from := len(*ns)
	for {
		part := f
		i := bytes.IndexByte(f, ';')
		if i >= 0 {
			part = f[:i]
		}
		v, ok := parseUint(part)
		if !ok || v > math.MaxUint32 {
			c.fail("a ;-separated list of unsigned 32-bit decimal integers")
			*ns = (*ns)[:from]
			return nil
		}
		*ns = append(*ns, uint32(v))
		if i < 0 {
			return (*ns)[from:len(*ns):len(*ns)]
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
