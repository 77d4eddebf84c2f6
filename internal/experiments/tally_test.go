package experiments

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
	"unsafe"

	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// resultHash is FNV-1a over a result's ID, title, text and every metric's
// exact bits.
func resultHash(r *Result) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s\n%s\n%s\n", r.ID, r.Title, r.Text)
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%b\n", k, r.Metrics[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestFoldedResultsGolden pins every population table and figure, text and
// metrics bit for bit, at the package's small campaign (seed 2012, one
// shard) and Table 4 at seed 77. The hashes were taken from the renderers
// that walked materialised record slices, before the tallies replaced
// them; the folds reproduce those results exactly, at DefaultScale too.
func TestFoldedResultsGolden(t *testing.T) {
	want := map[string]string{
		"table1":   "847ed83f11f74bf3",
		"table2":   "ef2772e51ab83acb",
		"table3":   "d950af3d5a772cb4",
		"table5":   "bbe0808942b8ff51",
		"figure2":  "02d828e013287b6e",
		"figure3":  "23d606e750febfcd",
		"figure4":  "67f31b45f6d4d403",
		"figure5":  "c537b399a86fe909",
		"figure6":  "175ce68c3d6014c4",
		"figure7":  "99dd339c52b971ca",
		"figure8":  "73f702e25c44688d",
		"figure11": "5bbd8eccdf6de210",
		"figure12": "113347bee4f6e17e",
		"figure13": "db6c223a989a0f13",
		"figure14": "c860a4d57d00d687",
		"figure15": "4a6d9c61664937fc",
		"figure16": "5ef749241c1a1190",
		"figure17": "86a06ef543f1fdee",
		"figure18": "45e540e6b122d68b",
		"figure20": "128e6694096e9f08",
		"figure21": "2d8c5a0b65bab234",
		"table4":   "0a7f05e48f5199c8",
	}
	results := All(testTallies(t))
	t4, err := Table4Context(context.Background(), 77, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	results = append(results, t4)
	if len(results) != len(want) {
		t.Fatalf("%d results, %d pinned", len(results), len(want))
	}
	for _, r := range results {
		if got := resultHash(r); got != want[r.ID] {
			t.Errorf("%s: hash %s, pinned %s", r.ID, got, want[r.ID])
		}
	}
}

// TestTraceFoldMatchesGenerated: a population exported in any format and
// read back through traces.Open folds to the tally the fleet fold builds
// from the generator, count for count and sample for sample: both leave
// the storage samples in first-packet order, so they compare element for
// element. The CSV export keeps minimum RTTs at microseconds, so a CSV
// sample's MinRTT is compared truncated to them. An anonymized export
// reads back with every client address zero, so its rows skip the
// per-address fields (provider addresses, household volumes, devices) and
// compare the samples' and sessions' Client as zero.
func TestTraceFoldMatchesGenerated(t *testing.T) {
	vp, fc := workload.Home1(0.02), fleet.Config{Shards: 3}
	ts, err := fold(context.Background(), []fleet.Population{{VP: vp, Seed: 5}}, fc)
	if err != nil {
		t.Fatal(err)
	}
	gen := ts[0]
	// The fold keeps each shard's sessions together; the file keeps shard
	// order.
	slices.SortFunc(gen.sessions, bySession)
	for _, name := range []string{"csv", "binary", "binary-flate"} {
		t.Run(name, func(t *testing.T) {
			for _, anon := range []bool{false, true} {
				t.Run(map[bool]string{false: "plain", true: "anonymized"}[anon], func(t *testing.T) {
					compareTraceFold(t, gen, readBackFold(t, vp, fc, name, anon), name == "csv", anon)
				})
			}
		})
	}
}

func bySession(a, b classify.Session) int {
	return cmp.Or(cmp.Compare(a.Host, b.Host), cmp.Compare(a.Start, b.Start))
}

// readBackFold exports vp's population in the named format and folds the
// file's records the way cmd/tstat-analyze does.
func readBackFold(t *testing.T, vp workload.VPConfig, fc fleet.Config, format string, anon bool) *Tally {
	t.Helper()
	f, err := traces.LookupFormat(format)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := f.New(&buf, anon, 1)
	if _, err := fleet.StreamRecords(context.Background(), vp, 5, fc, func(r *traces.FlowRecord) bool {
		return w.Write(r) == nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	rd, err := traces.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := NewTally(vp.Days)
	for {
		r, err := rd.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got.Consume(r)
	}
	got.FinishShard()
	slices.SortFunc(got.sessions, bySession)
	return got
}

// compareTraceFold compares a read-back fold against the generated one.
func compareTraceFold(t *testing.T, gen, got *Tally, csv, anon bool) {
	t.Helper()
	storage := slices.Clone(gen.Storage)
	for i := range storage {
		if csv {
			storage[i].MinRTT = storage[i].MinRTT.Truncate(time.Microsecond)
		}
		if anon {
			storage[i].Client = 0
		}
	}
	sessions := slices.Clone(gen.sessions)
	if anon {
		for i := range sessions {
			sessions[i].Client = 0
		}
	}
	gs, gr := gen.StorageSizes()
	fs, fr := got.StorageSizes()
	type pair struct {
		what      string
		gen, file any
	}
	pairs := []pair{
		{"providers", gen.Providers, got.Providers},
		{"services", gen.Services, got.Services},
		{"provider days", gen.providerDays, got.providerDays},
		{"storage samples", storage, got.Storage},
		{"store sizes", gs, fs},
		{"retrieve sizes", gr, fr},
		{"namespaces", gen.hosts, got.hosts},
		{"notification durations", gen.NotifySeconds, got.NotifySeconds},
		{"web", [][]float64{gen.WebUp, gen.WebDown}, [][]float64{got.WebUp, got.WebDown}},
		{"direct links", gen.DirectLinks, got.DirectLinks},
		{"sessions", sessions, got.sessions},
		{"storage RTTs", len(gen.StorageRTT()), len(got.StorageRTT())},
		{"control RTTs", len(gen.ControlRTT), len(got.ControlRTT)},
	}
	if !anon {
		gStore, gRetr := gen.HouseholdVolumes()
		fStore, fRetr := got.HouseholdVolumes()
		pairs = append(pairs,
			pair{"provider addresses", gen.providerIPs, got.providerIPs},
			pair{"household store", gStore, fStore},
			pair{"household retrieve", gRetr, fRetr},
			pair{"devices", gen.devices, got.devices})
	}
	for _, p := range pairs {
		if !reflect.DeepEqual(p.gen, p.file) {
			t.Errorf("%s differ between the generated and the read-back fold", p.what)
		}
	}
}

// TestTallyDevicesPerHousehold: distinct devices are counted behind each
// address, from notification flows only.
func TestTallyDevicesPerHousehold(t *testing.T) {
	ip1 := wire.MakeIP(10, 0, 0, 1)
	ip2 := wire.MakeIP(10, 0, 0, 2)
	tl := NewTally(0)
	for _, r := range []traces.FlowRecord{
		{NotifyHost: 1, Client: ip1},
		{NotifyHost: 1, Client: ip1},
		{NotifyHost: 2, Client: ip1},
		{NotifyHost: 3, Client: ip2},
		{NotifyHost: 0, Client: ip2}, // not a notify flow
	} {
		tl.Consume(&r)
	}
	if got := tl.DevicesPerHousehold(); len(got) != 2 || got[ip1] != 2 || got[ip2] != 1 {
		t.Fatalf("devices = %v", got)
	}
}

// TestTallyNamespacesUseLast: Fig. 13 counts a device's namespaces at its
// latest observation.
func TestTallyNamespacesUseLast(t *testing.T) {
	tl := NewTally(0)
	for _, r := range []traces.FlowRecord{
		{NotifyHost: 1, LastPacket: 2 * time.Hour, NotifyNamespaces: []uint32{1, 2, 3}},
		{NotifyHost: 1, LastPacket: time.Hour, NotifyNamespaces: []uint32{1}},
	} {
		tl.Consume(&r)
	}
	if got := tl.hosts[1].n; got != 3 {
		t.Fatalf("namespaces = %d, want last observation 3", got)
	}
}

// TestFoldOnePool: the four vantage points' shards share one fleet pool, so
// Fold at Workers 1 never has two shards generating at once. A ShardEvent
// arrives as its shard ends, so its shard ran from the event's time minus
// Elapsed; on a serial pool that start is never before the previous
// event's time.
func TestFoldOnePool(t *testing.T) {
	var (
		mu     sync.Mutex
		last   time.Time
		events []string
	)
	fc := fleet.Config{Shards: 2, Workers: 1, Observer: func(ev fleet.ShardEvent) {
		mu.Lock()
		defer mu.Unlock()
		now := time.Now()
		if now.Add(-ev.Elapsed).Before(last) {
			t.Errorf("%s shard %d generated beside the shard before it (events so far: %v)", ev.VP, ev.Shard, events)
		}
		last = now
		events = append(events, fmt.Sprintf("%s/%d", ev.VP, ev.Shard))
	}}
	ts, err := Fold(context.Background(), 3, SmallScale(), fc)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 4 || len(events) != 4*fc.Shards {
		t.Fatalf("%d tallies and %d shard events, want 4 and %d", len(ts), len(events), 4*fc.Shards)
	}
}

// TestFoldStorageOrder: a fold's storage samples are, element for element,
// the storage flows of fleet.StreamRecords' shard-ordered stream
// stable-sorted by first packet — the order the fold had when it sorted
// the merged samples itself — at every shard and worker count. Generated
// first packets do not tie; fleet's TestMergeRuns pins the tie rule.
// The oracle builds each storage flow's sample straight off the stream.
func TestFoldStorageOrder(t *testing.T) {
	vp := workload.Home1(0.02)
	for _, shards := range []int{1, 3, 8} {
		var want []StorageFlow
		if _, err := fleet.StreamRecords(context.Background(), vp, 5, fleet.Config{Shards: shards}, func(r *traces.FlowRecord) bool {
			if classify.ProviderOf(r) == classify.ProvDropbox && classify.DropboxService(r) == dnssim.SvcClientStorage {
				want = append(want, StorageFlow{Client: r.Client, Server: r.Server, FirstPacket: r.FirstPacket,
					LastPayloadUp: r.LastPayloadUp, LastPayloadDown: r.LastPayloadDown, BytesUp: r.BytesUp,
					BytesDown: r.BytesDown, PSHUp: r.PSHUp, PSHDown: r.PSHDown, MinRTT: r.MinRTT,
					RTTSamples: r.RTTSamples, ServerClosed: r.ServerClosed})
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		slices.SortStableFunc(want, byFirstPacket)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/workers=%d", shards, workers), func(t *testing.T) {
				ts, err := fold(context.Background(), []fleet.Population{{VP: vp, Seed: 5}}, fleet.Config{Shards: shards, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := ts[0].Storage; len(want) == 0 || !slices.Equal(got, want) {
					t.Fatalf("fold kept %d storage samples, not the %d of the stream in stable first-packet order", len(got), len(want))
				}
			})
		}
	}
}

// TestSortByFirstPacket: FinishShard's sort is a stable sort by first
// packet, ties and all (a trace file can repeat a first packet).
func TestSortByFirstPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		for _, span := range []int{1, 3, 1 << 30} {
			s := make([]StorageFlow, n)
			for i := range s {
				s[i] = StorageFlow{FirstPacket: time.Duration(rng.Intn(span)), BytesUp: int64(i)}
			}
			want := slices.Clone(s)
			slices.SortStableFunc(want, byFirstPacket)
			if sortByFirstPacket(s); !slices.Equal(s, want) {
				t.Fatalf("n=%d span=%d: not the stable sort by first packet", n, span)
			}
		}
	}
}

// TestTallyStorageMemory: a storage flow costs a tally one compact sample,
// never a record copy. The sample is at most 88 bytes; a folded tally
// holds at most two of them per storage flow, unused capacity included;
// and folding a fixed population's storage flows shard by shard allocates
// no more than one exactly sized run of samples per shard, one 16-byte
// sort key per sample, and one exactly sized merge of the shards' runs:
// the chunks the samples are collected in come back to their pool. The
// pool keeps one chunk per P that only a fold running on that P can draw
// again, so a fold that resumes on another P may draw a new chunk: the
// budget allows one 4,096-sample chunk (fleet's chunk length) per P. The
// least of three folds is measured, so an allocation of the runtime's own
// (or a first fold's chunks) cannot fail it.
func TestTallyStorageMemory(t *testing.T) {
	size := unsafe.Sizeof(StorageFlow{})
	if size > 88 {
		t.Fatalf("StorageFlow is %d bytes, want at most 88", size)
	}
	vp, shards := workload.Home1(0.1), 3
	recs := make([][]traces.FlowRecord, shards)
	n := 0
	for sh := range recs {
		workload.GenerateShard(vp, 5, sh, shards, func(r *traces.FlowRecord) {
			if classify.ProviderOf(r) == classify.ProvDropbox && classify.DropboxService(r) == dnssim.SvcClientStorage {
				recs[sh] = append(recs[sh], *r)
			}
		})
		n += len(recs[sh])
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var samples [][]StorageFlow
	var keys [][][2]int64
	runs := allocated(func() {
		for _, rs := range recs {
			samples = append(samples, make([]StorageFlow, len(rs)))
			keys = append(keys, make([][2]int64, len(rs)))
		}
	})
	merge := allocated(func() { samples = append(samples, make([]StorageFlow, n)) })
	folded := uint64(math.MaxUint64)
	var st []StorageFlow
	for range 3 {
		tallies := make([]*Tally, shards)
		for sh := range tallies {
			tallies[sh] = NewTally(0)
		}
		folded = min(folded, allocated(func() {
			for sh, rs := range recs {
				for i := range rs {
					tallies[sh].Consume(&rs[i])
				}
				tallies[sh].FinishShard()
			}
			for _, o := range tallies[1:] {
				tallies[0].Merge(o)
			}
			tallies[0].Storage = tallies[0].storage.Merged(byFirstPacket)
		}))
		st = tallies[0].Storage
	}
	if len(st) != n || len(samples) != shards+1 || len(keys) != shards {
		t.Fatalf("folded %d storage samples of %d", len(st), n)
	}
	if held := uintptr(cap(st)) * size; held > 2*size*uintptr(n) {
		t.Errorf("the folded tally holds %d B per storage flow, want at most %d", held/uintptr(n), 2*size)
	}
	chunks := uint64(runtime.GOMAXPROCS(0)) * 4096 * uint64(size)
	if budget := runs + merge + chunks + 1024; folded > budget {
		t.Errorf("folding allocated %d B (%.0f per storage flow), want at most %d: the shards' runs and keys, one merge and a chunk per P",
			folded, float64(folded)/float64(n), budget)
	}
}

// TestSortByFirstPacketAllocs: sortByFirstPacket allocates its keys and
// nothing else; their sort (fleet.SortRun) allocates nothing.
func TestSortByFirstPacketAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	in := make([]StorageFlow, 50_000)
	for i := range in {
		in[i] = StorageFlow{FirstPacket: time.Duration(rng.Int63n(int64(42 * 24 * time.Hour))), BytesUp: int64(i)}
	}
	s := make([]StorageFlow, len(in))
	if a := testing.AllocsPerRun(5, func() {
		copy(s, in)
		sortByFirstPacket(s)
	}); a != 1 {
		t.Fatalf("sortByFirstPacket of %d samples allocated %v times, want 1 (its keys)", len(in), a)
	}
}
