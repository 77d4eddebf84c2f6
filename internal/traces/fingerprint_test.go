package traces_test

import (
	"hash/fnv"
	"testing"
	"time"

	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

// fpRecord sets every field to a distinct non-zero value; MinRTT carries
// a sub-microsecond part the CSV row would drop.
func fpRecord() *traces.FlowRecord {
	return &traces.FlowRecord{
		VP:     "home1",
		Client: wire.MakeIP(10, 1, 2, 3), Server: wire.MakeIP(184, 72, 9, 9),
		ClientPort: 40001, ServerPort: 443,
		FirstPacket: 3 * time.Second, LastPacket: 9 * time.Second,
		LastPayloadUp: 8 * time.Second, LastPayloadDown: 7 * time.Second,
		BytesUp: 123456, BytesDown: 7890,
		PktsUp: 100, PktsDown: 60, PSHUp: 4, PSHDown: 7,
		RetransUp: 1, RetransDown: 2,
		MinRTT: 92*time.Millisecond + 317, RTTSamples: 14,
		SNI: "dl-client9.dropbox.com", CertName: "*.dropbox.com",
		FQDN:       "notify3.dropbox.com",
		NotifyHost: 777, NotifyNamespaces: []uint32{1, 5, 9},
		SawSYN: true, SawFIN: false, SawRST: true, ServerClosed: false,
	}
}

func fingerprint(recs ...*traces.FlowRecord) uint64 {
	var f traces.Fingerprint
	for _, r := range recs {
		f.Add(r)
	}
	return f.Sum64()
}

// TestFingerprintPinned pins the layout: a change to the field order,
// the packing or the mixer moves this value, and with it every scenario
// stream hash.
func TestFingerprintPinned(t *testing.T) {
	const want uint64 = 0x573d8c90dc99dbbf
	if got := fingerprint(fpRecord()); got != want {
		t.Fatalf("Fingerprint(fpRecord) = %#016x, want %#016x", got, want)
	}
	// Sum64 leaves the state alone: summing midway changes nothing.
	var f traces.Fingerprint
	f.Add(fpRecord())
	f.Sum64()
	f.Add(fpRecord())
	if f.Sum64() != fingerprint(fpRecord(), fpRecord()) {
		t.Fatal("Sum64 changed the running state")
	}
}

// TestFingerprintFieldSensitivity perturbs every field of a record, one
// at a time, and requires a different sum from the base record and from
// every other perturbation.
func TestFingerprintFieldSensitivity(t *testing.T) {
	muts := []struct {
		name string
		mut  func(*traces.FlowRecord)
	}{
		{"VP byte", func(r *traces.FlowRecord) { r.VP = "home2" }},
		{"VP length", func(r *traces.FlowRecord) { r.VP = "home1\x00" }},
		{"VP empty", func(r *traces.FlowRecord) { r.VP = "" }},
		{"Client", func(r *traces.FlowRecord) { r.Client++ }},
		{"Server", func(r *traces.FlowRecord) { r.Server++ }},
		{"Client<->Server", func(r *traces.FlowRecord) { r.Client, r.Server = r.Server, r.Client }},
		{"ClientPort", func(r *traces.FlowRecord) { r.ClientPort++ }},
		{"ServerPort", func(r *traces.FlowRecord) { r.ServerPort++ }},
		{"ClientPort<->ServerPort", func(r *traces.FlowRecord) { r.ClientPort, r.ServerPort = r.ServerPort, r.ClientPort }},
		{"FirstPacket", func(r *traces.FlowRecord) { r.FirstPacket++ }},
		{"LastPacket", func(r *traces.FlowRecord) { r.LastPacket++ }},
		{"LastPayloadUp", func(r *traces.FlowRecord) { r.LastPayloadUp++ }},
		{"LastPayloadDown", func(r *traces.FlowRecord) { r.LastPayloadDown++ }},
		{"BytesUp", func(r *traces.FlowRecord) { r.BytesUp++ }},
		{"BytesDown", func(r *traces.FlowRecord) { r.BytesDown++ }},
		{"PktsUp", func(r *traces.FlowRecord) { r.PktsUp++ }},
		{"PktsDown", func(r *traces.FlowRecord) { r.PktsDown++ }},
		{"PSHUp", func(r *traces.FlowRecord) { r.PSHUp++ }},
		{"PSHDown", func(r *traces.FlowRecord) { r.PSHDown++ }},
		{"RetransUp", func(r *traces.FlowRecord) { r.RetransUp++ }},
		{"RetransDown", func(r *traces.FlowRecord) { r.RetransDown++ }},
		{"MinRTT sub-microsecond", func(r *traces.FlowRecord) { r.MinRTT++ }},
		{"RTTSamples", func(r *traces.FlowRecord) { r.RTTSamples++ }},
		{"SNI first word", func(r *traces.FlowRecord) { r.SNI = "DL-client9.dropbox.com" }},
		{"SNI last word", func(r *traces.FlowRecord) { r.SNI = "dl-client9.dropbox.co," }},
		{"SNI length", func(r *traces.FlowRecord) { r.SNI += "\x00" }},
		{"CertName byte", func(r *traces.FlowRecord) { r.CertName = "*.dropbox.net" }},
		{"CertName length", func(r *traces.FlowRecord) { r.CertName = "*.dropbox.co" }},
		{"FQDN byte", func(r *traces.FlowRecord) { r.FQDN = "notify4.dropbox.com" }},
		{"FQDN empty", func(r *traces.FlowRecord) { r.FQDN = "" }},
		{"NotifyHost", func(r *traces.FlowRecord) { r.NotifyHost++ }},
		{"NotifyNamespaces[0]", func(r *traces.FlowRecord) { r.NotifyNamespaces[0]++ }},
		{"NotifyNamespaces[1]", func(r *traces.FlowRecord) { r.NotifyNamespaces[1]++ }},
		{"NotifyNamespaces[2]", func(r *traces.FlowRecord) { r.NotifyNamespaces[2]++ }},
		{"NotifyNamespaces length (a trailing 0)", func(r *traces.FlowRecord) { r.NotifyNamespaces = append(r.NotifyNamespaces, 0) }},
		{"NotifyNamespaces shorter", func(r *traces.FlowRecord) { r.NotifyNamespaces = r.NotifyNamespaces[:2] }},
		{"NotifyNamespaces nil", func(r *traces.FlowRecord) { r.NotifyNamespaces = nil }},
		{"SawSYN", func(r *traces.FlowRecord) { r.SawSYN = !r.SawSYN }},
		{"SawFIN", func(r *traces.FlowRecord) { r.SawFIN = !r.SawFIN }},
		{"SawRST", func(r *traces.FlowRecord) { r.SawRST = !r.SawRST }},
		{"ServerClosed", func(r *traces.FlowRecord) { r.ServerClosed = !r.ServerClosed }},
	}
	seen := map[uint64]string{fingerprint(fpRecord()): "base record"}
	for _, m := range muts {
		r := fpRecord()
		m.mut(r)
		h := fingerprint(r)
		if prev, ok := seen[h]; ok {
			t.Errorf("perturbing %s gives %#016x, the sum of %s", m.name, h, prev)
		}
		seen[h] = m.name
	}
}

// TestFingerprintStringBoundaries moves bytes across string boundaries and
// word padding; the length prefixes must keep every pair apart.
func TestFingerprintStringBoundaries(t *testing.T) {
	pairs := []struct{ a, b func(*traces.FlowRecord) }{
		{func(r *traces.FlowRecord) { r.SNI, r.CertName = "ab", "" },
			func(r *traces.FlowRecord) { r.SNI, r.CertName = "a", "b" }},
		{func(r *traces.FlowRecord) { r.CertName, r.FQDN = "", "xy" },
			func(r *traces.FlowRecord) { r.CertName, r.FQDN = "x", "y" }},
		{func(r *traces.FlowRecord) { r.VP, r.SNI = "abcdefgh", "" },
			func(r *traces.FlowRecord) { r.VP, r.SNI = "abcdefg", "h" }},
		{func(r *traces.FlowRecord) { r.FQDN = "a" },
			func(r *traces.FlowRecord) { r.FQDN = "a\x00" }},
		{func(r *traces.FlowRecord) { r.FQDN = "abcdefgh" },
			func(r *traces.FlowRecord) { r.FQDN = "abcdefgh\x00" }},
	}
	for i, p := range pairs {
		a, b := fpRecord(), fpRecord()
		p.a(a)
		p.b(b)
		if fingerprint(a) == fingerprint(b) {
			t.Errorf("pair %d: %q/%q/%q/%q and %q/%q/%q/%q hash alike",
				i, a.VP, a.SNI, a.CertName, a.FQDN, b.VP, b.SNI, b.CertName, b.FQDN)
		}
	}
}

// TestFingerprintOrder: the stream hash depends on record order.
func TestFingerprintOrder(t *testing.T) {
	a, b := fpRecord(), fpRecord()
	b.BytesUp++
	if fingerprint(a, b) == fingerprint(b, a) {
		t.Fatal("swapping two records leaves the stream hash unchanged")
	}
}

func TestFingerprintAddAllocationFree(t *testing.T) {
	var f traces.Fingerprint
	r := fpRecord()
	if n := testing.AllocsPerRun(1000, func() { f.Add(r) }); n != 0 {
		t.Fatalf("Fingerprint.Add allocates %.1f times per record", n)
	}
}

// BenchmarkFingerprint and BenchmarkCSVIntoFNV hash the same Home 1
// records, one per iteration: the field hash against the CSV row into
// FNV-1a, the construction of the legacy golden stream hashes.
func BenchmarkFingerprint(b *testing.B) {
	recs := home1Sample(b)
	var f traces.Fingerprint
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		f.Add(recs[i%len(recs)])
		i++
	}
	sinkHash = f.Sum64()
}

func BenchmarkCSVIntoFNV(b *testing.B) {
	recs := home1Sample(b)
	h := fnv.New64a()
	w := traces.NewWriter(h)
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		if err := w.Write(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
		i++
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	sinkHash = h.Sum64()
}

var sinkHash uint64
