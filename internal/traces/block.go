package traces

// The block codec shared by every binary-framed serialization: a
// blockAccum accumulates records column-wise and encodes one block body
// (the `body` production of the wire format documented in binary.go);
// blockAccum.decodeBody parses a body back into columns. Both framings of
// the writer and reader core (codec.go), in every slot of the ring, build
// and parse their frames with exactly these two functions, which is what
// makes the "worker count and framing never change the decoded records"
// contract checkable block by block.
//
// The parsed columns serve two consumers: blockReader.build makes the
// readers' records from them, and the writer core's WriteFrom copies
// them block to block, appendRange appending a range of them to another
// accumulator with the bytes add would have produced record by record.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"insidedropbox/internal/wire"
)

// dictCol accumulates one dictionary-encoded string column for the block
// being built. All storage is reused across blocks.
type dictCol struct {
	idx     map[string]uint32
	entries []string
	refs    []uint32
	remap   []uint32 // appendRange scratch when this column is the source
	// recent holds an entry per string length, checked before idx. A slot
	// counts only when its entry equals the string looked up, so a stale
	// or colliding slot costs the map lookup and nothing else.
	recent [16]uint32
}

func (d *dictCol) add(s string) { d.refs = append(d.refs, d.index(s)) }

// index returns s's dictionary entry, appending it on first sight.
func (d *dictCol) index(s string) uint32 {
	slot := &d.recent[len(s)%len(d.recent)]
	if i := *slot; int(i) < len(d.entries) && d.entries[i] == s {
		return i
	}
	if d.idx == nil {
		d.idx = make(map[string]uint32)
	}
	i, ok := d.idx[s]
	if !ok {
		i = uint32(len(d.entries))
		d.idx[s] = i
		d.entries = append(d.entries, s)
	}
	*slot = i
	return i
}

// appendRange appends src's references lo..hi-1, remapped into d. A source
// entry is looked up in d once, when the first reference in the range
// meets it, so d's entries come out in the order add would have met them.
func (d *dictCol) appendRange(src *dictCol, lo, hi int) {
	remap := remapTable(&src.remap, len(src.entries))
	for _, r := range src.refs[lo:hi] {
		m := remap[r]
		if m == 0 {
			m = d.index(src.entries[r]) + 1
			remap[r] = m
		}
		d.refs = append(d.refs, m-1)
	}
}

// remapTable returns a zeroed table of n entries over *scratch: entry i
// holds a source entry's destination index plus one, zero while unmapped.
func remapTable(scratch *[]uint32, n int) []uint32 {
	if cap(*scratch) < n {
		*scratch = make([]uint32, n)
	}
	t := (*scratch)[:n]
	clear(t)
	return t
}

func (d *dictCol) reset() {
	clear(d.idx)
	d.entries = d.entries[:0]
	d.refs = d.refs[:0]
}

func (d *dictCol) encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.entries)))
	for _, s := range d.entries {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	for _, r := range d.refs {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return buf
}

// dictU64 is dictCol over numeric values (the address columns).
type dictU64 struct {
	idx     map[uint64]uint32
	entries []uint64
	refs    []uint32
	remap   []uint32          // appendRange scratch when this column is the source
	byAddr  map[uint32]uint32 // addAnon's entries, keyed by raw address
}

func (d *dictU64) add(v uint64) { d.refs = append(d.refs, d.index(v)) }

// addAnon appends ip's anonymized token. Keyed by the raw address, the
// token is computed once per address and block; idx, keyed by token,
// still gives two addresses that share a token one entry.
func (d *dictU64) addAnon(ip wire.IP) {
	if d.byAddr == nil {
		d.byAddr = make(map[uint32]uint32)
	}
	i, ok := d.byAddr[uint32(ip)]
	if !ok {
		i = d.index(anonToken(ip))
		d.byAddr[uint32(ip)] = i
	}
	d.refs = append(d.refs, i)
}

// index returns v's dictionary entry, appending it on first sight.
func (d *dictU64) index(v uint64) uint32 {
	if d.idx == nil {
		d.idx = make(map[uint64]uint32)
	}
	i, ok := d.idx[v]
	if !ok {
		i = uint32(len(d.entries))
		d.idx[v] = i
		d.entries = append(d.entries, v)
	}
	return i
}

// appendRange is dictCol.appendRange over addresses; anonymize turns each
// source address into its token once per remapped entry, not per record.
func (d *dictU64) appendRange(src *dictU64, lo, hi int, anonymize bool) {
	remap := remapTable(&src.remap, len(src.entries))
	for _, r := range src.refs[lo:hi] {
		m := remap[r]
		if m == 0 {
			v := src.entries[r]
			if anonymize {
				v = anonToken(wire.IP(v))
			}
			m = d.index(v) + 1
			remap[r] = m
		}
		d.refs = append(d.refs, m-1)
	}
}

func (d *dictU64) reset() {
	clear(d.idx)
	clear(d.byAddr)
	d.entries = d.entries[:0]
	d.refs = d.refs[:0]
}

func (d *dictU64) encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(d.entries)))
	for _, v := range d.entries {
		buf = binary.AppendUvarint(buf, v)
	}
	for _, r := range d.refs {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return buf
}

// blockAccum holds one block's records column-wise, pre-encoding. All
// storage is reused across blocks; the zero value is ready to use.
type blockAccum struct {
	n int // records accumulated

	client, server     dictU64
	cport, sport       []uint64
	first, last        []int64
	lpUp, lpDown       []int64
	bytesUp, bytesDown []int64
	pktsUp, pktsDown   []int64
	pshUp, pshDown     []int64
	retrUp, retrDown   []int64
	minRTT, rttSamples []int64
	notifyHost         []uint64
	nsCount            []uint64
	nsVals             []uint64
	flags              []byte
	vp, sni, cert      dictCol
	fqdn               dictCol

	buf []byte // frame encode scratch, owned by whoever encodes this accum
	out []byte // second scratch for framings that post-process buf (flate)
}

// add appends one record to the block under construction; nothing in r is
// retained.
func (a *blockAccum) add(r *FlowRecord, anonymize bool) {
	if anonymize {
		a.client.addAnon(r.Client)
	} else {
		a.client.add(uint64(uint32(r.Client)))
	}
	a.server.add(uint64(uint32(r.Server)))
	a.cport = append(a.cport, uint64(r.ClientPort))
	a.sport = append(a.sport, uint64(r.ServerPort))
	a.first = append(a.first, int64(r.FirstPacket))
	a.last = append(a.last, int64(r.LastPacket-r.FirstPacket))
	a.lpUp = append(a.lpUp, int64(r.LastPayloadUp-r.LastPacket))
	a.lpDown = append(a.lpDown, int64(r.LastPayloadDown-r.LastPacket))
	a.bytesUp = append(a.bytesUp, r.BytesUp)
	a.bytesDown = append(a.bytesDown, r.BytesDown)
	a.pktsUp = append(a.pktsUp, int64(r.PktsUp))
	a.pktsDown = append(a.pktsDown, int64(r.PktsDown))
	a.pshUp = append(a.pshUp, int64(r.PSHUp))
	a.pshDown = append(a.pshDown, int64(r.PSHDown))
	a.retrUp = append(a.retrUp, int64(r.RetransUp))
	a.retrDown = append(a.retrDown, int64(r.RetransDown))
	a.minRTT = append(a.minRTT, int64(r.MinRTT))
	a.rttSamples = append(a.rttSamples, int64(r.RTTSamples))
	a.notifyHost = append(a.notifyHost, r.NotifyHost)
	a.nsCount = append(a.nsCount, uint64(len(r.NotifyNamespaces)))
	for _, ns := range r.NotifyNamespaces {
		a.nsVals = append(a.nsVals, uint64(ns))
	}
	var fl byte
	if r.SawSYN {
		fl |= 1 << 0
	}
	if r.SawFIN {
		fl |= 1 << 1
	}
	if r.SawRST {
		fl |= 1 << 2
	}
	if r.ServerClosed {
		fl |= 1 << 3
	}
	a.flags = append(a.flags, fl)
	a.vp.add(r.VP)
	a.sni.add(r.SNI)
	a.cert.add(r.CertName)
	a.fqdn.add(r.FQDN)
	a.n++
}

// appendRange appends records lo..hi-1 of src, a block decodeBody filled
// from a full-fidelity stream, with exactly the columns add would have
// built from the records themselves: numeric, flag and namespace columns
// are copied, and the dictionary columns remapped entry by entry.
func (a *blockAccum) appendRange(src *blockAccum, lo, hi int, anonymize bool) {
	a.client.appendRange(&src.client, lo, hi, anonymize)
	a.server.appendRange(&src.server, lo, hi, false)
	a.cport = append(a.cport, src.cport[lo:hi]...)
	a.sport = append(a.sport, src.sport[lo:hi]...)
	a.first = append(a.first, src.first[lo:hi]...)
	a.last = append(a.last, src.last[lo:hi]...)
	a.lpUp = append(a.lpUp, src.lpUp[lo:hi]...)
	a.lpDown = append(a.lpDown, src.lpDown[lo:hi]...)
	a.bytesUp = append(a.bytesUp, src.bytesUp[lo:hi]...)
	a.bytesDown = append(a.bytesDown, src.bytesDown[lo:hi]...)
	a.pktsUp = append(a.pktsUp, src.pktsUp[lo:hi]...)
	a.pktsDown = append(a.pktsDown, src.pktsDown[lo:hi]...)
	a.pshUp = append(a.pshUp, src.pshUp[lo:hi]...)
	a.pshDown = append(a.pshDown, src.pshDown[lo:hi]...)
	a.retrUp = append(a.retrUp, src.retrUp[lo:hi]...)
	a.retrDown = append(a.retrDown, src.retrDown[lo:hi]...)
	a.minRTT = append(a.minRTT, src.minRTT[lo:hi]...)
	a.rttSamples = append(a.rttSamples, src.rttSamples[lo:hi]...)
	a.notifyHost = append(a.notifyHost, src.notifyHost[lo:hi]...)
	nsLo := 0
	for _, c := range src.nsCount[:lo] {
		nsLo += int(c)
	}
	nsHi := nsLo
	for _, c := range src.nsCount[lo:hi] {
		nsHi += int(c)
	}
	a.nsCount = append(a.nsCount, src.nsCount[lo:hi]...)
	a.nsVals = append(a.nsVals, src.nsVals[nsLo:nsHi]...)
	a.flags = append(a.flags, src.flags[lo:hi]...)
	a.vp.appendRange(&src.vp, lo, hi)
	a.sni.appendRange(&src.sni, lo, hi)
	a.cert.appendRange(&src.cert, lo, hi)
	a.fqdn.appendRange(&src.fqdn, lo, hi)
	a.n += hi - lo
}

// encodeBody appends the block body (uvarint record count, then every
// column) to buf and returns the grown slice.
func (a *blockAccum) encodeBody(buf []byte) []byte {
	body := binary.AppendUvarint(buf, uint64(a.n))
	body = a.client.encode(body)
	body = a.server.encode(body)
	for _, v := range a.cport {
		body = binary.AppendUvarint(body, v)
	}
	for _, v := range a.sport {
		body = binary.AppendUvarint(body, v)
	}
	prev := int64(0)
	for _, v := range a.first {
		body = binary.AppendVarint(body, v-prev)
		prev = v
	}
	for _, v := range a.last {
		body = binary.AppendVarint(body, v)
	}
	for _, v := range a.lpUp {
		body = binary.AppendVarint(body, v)
	}
	for _, v := range a.lpDown {
		body = binary.AppendVarint(body, v)
	}
	for _, col := range [...][]int64{
		a.bytesUp, a.bytesDown, a.pktsUp, a.pktsDown,
		a.pshUp, a.pshDown, a.retrUp, a.retrDown,
		a.minRTT, a.rttSamples,
	} {
		for _, v := range col {
			body = binary.AppendVarint(body, v)
		}
	}
	body = a.vp.encode(body)
	body = a.sni.encode(body)
	body = a.cert.encode(body)
	body = a.fqdn.encode(body)
	for _, v := range a.notifyHost {
		body = binary.AppendUvarint(body, v)
	}
	for _, v := range a.nsCount {
		body = binary.AppendUvarint(body, v)
	}
	for _, v := range a.nsVals {
		body = binary.AppendUvarint(body, v)
	}
	body = append(body, a.flags...)
	return body
}

// reset clears the accumulator for the next block, keeping all storage.
func (a *blockAccum) reset() {
	a.n = 0
	a.client.reset()
	a.server.reset()
	a.cport = a.cport[:0]
	a.sport = a.sport[:0]
	a.first = a.first[:0]
	a.last = a.last[:0]
	a.lpUp = a.lpUp[:0]
	a.lpDown = a.lpDown[:0]
	a.bytesUp = a.bytesUp[:0]
	a.bytesDown = a.bytesDown[:0]
	a.pktsUp = a.pktsUp[:0]
	a.pktsDown = a.pktsDown[:0]
	a.pshUp = a.pshUp[:0]
	a.pshDown = a.pshDown[:0]
	a.retrUp = a.retrUp[:0]
	a.retrDown = a.retrDown[:0]
	a.minRTT = a.minRTT[:0]
	a.rttSamples = a.rttSamples[:0]
	a.notifyHost = a.notifyHost[:0]
	a.nsCount = a.nsCount[:0]
	a.nsVals = a.nsVals[:0]
	a.flags = a.flags[:0]
	a.vp.reset()
	a.sni.reset()
	a.cert.reset()
	a.fqdn.reset()
}

// ---------- decode side ----------

// bdec is a cursor over one decoded block body.
type bdec struct {
	b   []byte
	off int
	err error
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = errors.New("traces: corrupt binary block (uvarint)")
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	// n comes straight from an untrusted uvarint: compare against the
	// remaining length by subtraction so a huge n cannot overflow the
	// check and panic the slice below.
	if n < 0 || n > len(d.b)-d.off {
		d.err = errors.New("traces: corrupt binary block (bytes)")
		return nil
	}
	b := d.b[d.off : d.off+n]
	d.off += n
	return b
}

// dictLen decodes the entry count that opens a dictionary column. Every
// entry costs at least one body byte, which bounds a hostile count.
func (d *bdec) dictLen() int {
	dl := d.uvarint()
	if d.err == nil && dl > uint64(len(d.b)-d.off) {
		d.err = errors.New("traces: corrupt binary block (dict length)")
	}
	if d.err != nil {
		return 0
	}
	return int(dl)
}

// The column readers below decode a whole column per call: n values, or
// the first error among them, with the cursor held in a local and a
// one-byte value read without a call. Each grows dst to n up front, so a
// fresh column is sized once rather than by doubling.

// uvarints appends n uvarints to dst, each masked to the width of the
// field it fills.
func (d *bdec) uvarints(dst []uint64, n int, mask uint64) []uint64 {
	if d.err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	b, off := d.b, d.off
	for range n {
		v, k := uint64(0), 1
		if off < len(b) && b[off] < 0x80 {
			v = uint64(b[off])
		} else if v, k = binary.Uvarint(b[off:]); k <= 0 {
			d.off, d.err = off, errors.New("traces: corrupt binary block (uvarint)")
			return dst
		}
		off += k
		dst = append(dst, v&mask)
	}
	d.off = off
	return dst
}

// varints appends n zigzag varints to dst.
func (d *bdec) varints(dst []int64, n int) []int64 {
	if d.err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	b, off := d.b, d.off
	for range n {
		u, k := uint64(0), 1
		if off < len(b) && b[off] < 0x80 {
			u = uint64(b[off])
		} else if u, k = binary.Uvarint(b[off:]); k <= 0 {
			d.off, d.err = off, errors.New("traces: corrupt binary block (varint)")
			return dst
		}
		off += k
		dst = append(dst, int64(u>>1)^-int64(u&1))
	}
	d.off = off
	return dst
}

// refs appends n references into a dictionary of entries entries to dst.
func (d *bdec) refs(dst []uint32, n, entries int) []uint32 {
	if d.err != nil {
		return dst
	}
	dst = slices.Grow(dst, n)
	b, off := d.b, d.off
	for range n {
		v, k := uint64(0), 1
		if off < len(b) && b[off] < 0x80 {
			v = uint64(b[off])
		} else if v, k = binary.Uvarint(b[off:]); k <= 0 {
			d.off, d.err = off, errors.New("traces: corrupt binary block (uvarint)")
			return dst
		}
		off += k
		if v >= uint64(entries) {
			d.off, d.err = off, errors.New("traces: corrupt binary block (dict ref)")
			return dst
		}
		dst = append(dst, uint32(v))
	}
	d.off = off
	return dst
}

// decode reads one address column of n records into the reset column: its
// entries, narrowed to the 32 bits a record's address holds, then its
// references.
func (c *dictU64) decode(d *bdec, n int) {
	for dl := d.dictLen(); dl > 0; dl-- {
		c.entries = append(c.entries, uint64(uint32(d.uvarint())))
	}
	c.refs = d.refs(c.refs, n, len(c.entries))
}

// decode reads one string column of n records into the reset column;
// names interns the entries, so a name costs one allocation per stream,
// not per block.
func (c *dictCol) decode(d *bdec, n int, names interface{ get([]byte) string }) {
	for dl := d.dictLen(); dl > 0; dl-- {
		c.entries = append(c.entries, names.get(d.bytes(int(d.uvarint()))))
	}
	c.refs = d.refs(c.refs, n, len(c.entries))
}

// sharedNames is the intern table of a block reader, whose frames decode
// on goroutines of their own: a name costs one allocation per reader, not
// one per ring slot.
type sharedNames struct {
	mu sync.Mutex
	t  internTable
}

func (s *sharedNames) get(b []byte) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t.get(b)
}

// build makes the records of c's block from record from on: freshly
// allocated ones, or with reuse the reader's own, valid until the next
// call. Neither aliases c, whose strings are interned and shared. An
// anonymized stream decodes with Client == 0, matching the CSV reader's
// behaviour on anonymized rows.
func (rd *blockReader) build(c *blockAccum, from int, reuse bool) []*FlowRecord {
	n, nsFrom := c.n-from, 0
	for _, k := range c.nsCount[:from] {
		nsFrom += int(k)
	}
	nsN := len(c.nsVals) - nsFrom
	var recs []*FlowRecord
	var backing []FlowRecord
	var ns []uint32
	if reuse {
		recs, backing, ns = rd.keep[:0], rd.backing[:0], rd.ns[:0]
	}
	recs, backing, ns = slices.Grow(recs, n)[:n], slices.Grow(backing, n)[:n], slices.Grow(ns, nsN)[:nsN]
	if reuse {
		rd.keep, rd.backing, rd.ns = recs, backing, ns
		clear(backing)
	}
	for i, v := range c.nsVals[nsFrom:] {
		ns[i] = uint32(v)
	}
	for k := range recs {
		r, i := &backing[k], from+k
		recs[k] = r
		if !rd.anon {
			r.Client = wire.IP(c.client.entries[c.client.refs[i]])
		}
		r.Server = wire.IP(c.server.entries[c.server.refs[i]])
		r.ClientPort, r.ServerPort = uint16(c.cport[i]), uint16(c.sport[i])
		r.FirstPacket = time.Duration(c.first[i])
		r.LastPacket = r.FirstPacket + time.Duration(c.last[i])
		r.LastPayloadUp = r.LastPacket + time.Duration(c.lpUp[i])
		r.LastPayloadDown = r.LastPacket + time.Duration(c.lpDown[i])
		r.BytesUp, r.BytesDown = c.bytesUp[i], c.bytesDown[i]
		r.PktsUp, r.PktsDown = int(c.pktsUp[i]), int(c.pktsDown[i])
		r.PSHUp, r.PSHDown = int(c.pshUp[i]), int(c.pshDown[i])
		r.RetransUp, r.RetransDown = int(c.retrUp[i]), int(c.retrDown[i])
		r.MinRTT, r.RTTSamples = time.Duration(c.minRTT[i]), int(c.rttSamples[i])
		r.VP = c.vp.entries[c.vp.refs[i]]
		r.SNI = c.sni.entries[c.sni.refs[i]]
		r.CertName = c.cert.entries[c.cert.refs[i]]
		r.FQDN = c.fqdn.entries[c.fqdn.refs[i]]
		r.NotifyHost = c.notifyHost[i]
		if m := int(c.nsCount[i]); m > 0 {
			// Capacity-capped, so appending to one record's list cannot
			// write into its neighbour's.
			r.NotifyNamespaces, ns = ns[:m:m], ns[m:]
		}
		fl := c.flags[i]
		r.SawSYN = fl&(1<<0) != 0
		r.SawFIN = fl&(1<<1) != 0
		r.SawRST = fl&(1<<2) != 0
		r.ServerClosed = fl&(1<<3) != 0
	}
	return recs
}

// decodeBody is encodeBody's inverse, and the one parser of a block body:
// it refills a with the columns of one body — dictionary columns as
// entries and references, names interned, FirstPacket absolute again —
// or returns the first bound the body breaks. It narrows each value the
// way a FlowRecord holds it (ports to 16 bits, addresses and namespaces
// to 32, flags to their four bits), so appendRange re-encodes the bytes
// Write gives the records fill builds from the same columns.
func (a *blockAccum) decodeBody(body []byte, names interface{ get([]byte) string }) error {
	a.reset()
	d := &bdec{b: body}
	n := int(d.uvarint())
	if d.err != nil {
		return d.err
	}
	// Every record costs at least 24 body bytes (25 columns write one
	// varint or flag byte each, minus generous slack), so a count claiming
	// less is corrupt — and the bound keeps a hostile count from forcing
	// an allocation far larger than the input that carried it.
	if n <= 0 || n > len(body)/24+1 {
		return fmt.Errorf("traces: implausible block record count %d", n)
	}
	a.client.decode(d, n)
	a.server.decode(d, n)
	a.cport = d.uvarints(a.cport, n, math.MaxUint16)
	a.sport = d.uvarints(a.sport, n, math.MaxUint16)
	a.first = d.varints(a.first, n)
	for i := 1; i < len(a.first); i++ {
		a.first[i] += a.first[i-1]
	}
	for _, col := range [...]*[]int64{
		&a.last, &a.lpUp, &a.lpDown,
		&a.bytesUp, &a.bytesDown, &a.pktsUp, &a.pktsDown,
		&a.pshUp, &a.pshDown, &a.retrUp, &a.retrDown,
		&a.minRTT, &a.rttSamples,
	} {
		*col = d.varints(*col, n)
	}
	a.vp.decode(d, n, names)
	a.sni.decode(d, n, names)
	a.cert.decode(d, n, names)
	a.fqdn.decode(d, n, names)
	a.notifyHost = d.uvarints(a.notifyHost, n, math.MaxUint64)
	// Every namespace costs at least one body byte, so the bytes left
	// bound the total, and a hostile count still cannot out-allocate the
	// input that carried it.
	counts, total := a.nsCount, 0
	for range n {
		c := d.uvarint()
		if left := len(body) - d.off - total; d.err == nil && (left < 0 || c > uint64(left)) {
			d.err = errors.New("traces: corrupt binary block (ns count)")
		}
		if d.err != nil {
			break
		}
		counts = append(counts, c)
		total += int(c)
	}
	a.nsCount = counts
	a.nsVals = d.uvarints(a.nsVals, total, math.MaxUint32)
	flags := d.bytes(n)
	if d.err != nil {
		return d.err
	}
	for _, fl := range flags {
		a.flags = append(a.flags, fl&0x0f)
	}
	if d.off != len(body) {
		return fmt.Errorf("traces: %d trailing bytes in block", len(body)-d.off)
	}
	a.n = n
	return nil
}
