package experiments

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"insidedropbox/internal/classify"
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
// from the generator, count for count and sample for sample. Minimum RTTs
// are compared by count only: the export keeps them at microseconds.
func TestTraceFoldMatchesGenerated(t *testing.T) {
	vp, fc := workload.Home1(0.02), fleet.Config{Shards: 3}
	ts, err := fold(context.Background(), []fleet.Population{{VP: vp, Seed: 5}}, fc)
	if err != nil {
		t.Fatal(err)
	}
	gen := ts[0]
	for _, name := range []string{"csv", "binary", "binary-flate"} {
		t.Run(name, func(t *testing.T) {
			f, err := traces.LookupFormat(name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			w := f.New(&buf, false, 1)
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

			// The fold sorts storage flows by first packet and keeps each
			// shard's sessions together; the file keeps shard order.
			gs, gr := gen.StorageSizes()
			fs, fr := got.StorageSizes()
			slices.Sort(gs)
			slices.Sort(gr)
			slices.Sort(fs)
			slices.Sort(fr)
			bySession := func(a, b classify.Session) int {
				return cmp.Or(cmp.Compare(a.Host, b.Host), cmp.Compare(a.Start, b.Start))
			}
			slices.SortFunc(gen.sessions, bySession)
			slices.SortFunc(got.sessions, bySession)
			gStore, gRetr := gen.HouseholdVolumes()
			fStore, fRetr := got.HouseholdVolumes()
			for _, c := range []struct {
				what      string
				gen, file any
			}{
				{"providers", gen.Providers, got.Providers},
				{"services", gen.Services, got.Services},
				{"provider days", gen.providerDays, got.providerDays},
				{"provider addresses", gen.providerIPs, got.providerIPs},
				{"store sizes", gs, fs},
				{"retrieve sizes", gr, fr},
				{"household store", gStore, fStore},
				{"household retrieve", gRetr, fRetr},
				{"devices", gen.devices, got.devices},
				{"namespaces", gen.hosts, got.hosts},
				{"notification durations", gen.NotifySeconds, got.NotifySeconds},
				{"web", [][]float64{gen.WebUp, gen.WebDown}, [][]float64{got.WebUp, got.WebDown}},
				{"direct links", gen.DirectLinks, got.DirectLinks},
				{"sessions", gen.sessions, got.sessions},
				{"storage RTTs", len(gen.StorageRTT()), len(got.StorageRTT())},
				{"control RTTs", len(gen.ControlRTT), len(got.ControlRTT)},
			} {
				if !reflect.DeepEqual(c.gen, c.file) {
					t.Errorf("%s differ between the generated and the read-back fold", c.what)
				}
			}
		})
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
