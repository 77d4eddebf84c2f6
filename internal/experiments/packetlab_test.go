package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"reflect"
	"runtime"
	"testing"

	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
)

// recordsHash is FNV-1a over every field of every record, in order.
func recordsHash(recs []*traces.FlowRecord) string {
	h := fnv.New64a()
	for _, r := range recs {
		fmt.Fprintf(h, "%+v\n", *r)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestPacketLabGolden pins the packet path bit for bit: every record of
// the quick store and retrieve labs, and the text and metrics of Figs. 1,
// 9, 10 and 19, rendered through the registry from a quick session whose
// testbed runs at seed 2012.
func TestPacketLabGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("packet labs are slow")
	}
	want := map[string]string{
		"store":    "10e4aadcf64cf4c4",
		"retrieve": "a17f2df2af879fc3",
		"figure1":  "424ef332ce30ba29",
		"figure9":  "40f464d4e7523c3d",
		"figure10": "b8e741383e8e7ec4",
		"figure19": "d34f6bfa190c318e",
	}
	ctx := context.Background()
	s := &Session{Seed: 2012, Quick: true}
	store, retr, err := s.PacketRecords(ctx)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{"store": recordsHash(store), "retrieve": recordsHash(retr)}
	for _, id := range []string{"figure1", "figure9", "figure10", "figure19"} {
		e, _ := ByID(id)
		r, err := e.Run(ctx, s)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = resultHash(r)
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: hash %s, pinned %s", k, got[k], w)
		}
	}
}

// TestTestbedCaptureGolden pins the whole seed-2012 testbed capture bit
// for bit: every frame's time, direction, flags, payload length, server
// port and both addresses, and every message line of Fig. 1, where the
// figures render only the first few of each.
func TestTestbedCaptureGolden(t *testing.T) {
	tb, err := RunTestbed(context.Background(), 2012)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, e := range tb.frames {
		fmt.Fprintf(h, "%d %t %d %d %d %d %d\n", e.at, e.out, e.flags, e.size, e.port, e.srv, e.client)
	}
	for _, line := range tb.messages {
		fmt.Fprintln(h, line)
	}
	const frames, messages, want = 2322, 14, "8ac7f9ca54e65ad4"
	if got := fmt.Sprintf("%016x", h.Sum64()); len(tb.frames) != frames || len(tb.messages) != messages || got != want {
		t.Errorf("%d frames, %d messages, hash %s; pinned %d, %d, %s", len(tb.frames), len(tb.messages), got, frames, messages, want)
	}
}

// TestDefaultPacketLabGolden pins every record of the default store and
// retrieve labs (2 × 192 flows), the ones behind the full-scale Figs. 9
// and 10. TestPacketLabGolden covers only the quick labs.
func TestDefaultPacketLabGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("packet labs are slow")
	}
	store, retr, err := runPacketLabs(context.Background(), DefaultPacketLab(false), DefaultPacketLab(true), 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		recs []*traces.FlowRecord
		want string
	}{{"store", store, "79631c04bd5e5d1e"}, {"retrieve", retr, "8fa7a28f540e3d98"}} {
		if got := recordsHash(c.recs); got != c.want || len(c.recs) != 192 {
			t.Errorf("%s: %d records, hash %s; pinned 192, %s", c.name, len(c.recs), got, c.want)
		}
	}
}

// TestPacketLabFlowsServerClosed: every lab transfer is one storage flow
// that the server's idle alert ends (Fig. 19), the flow the chunk
// estimator and TransferDuration's 60 s compensation assume.
func TestPacketLabFlowsServerClosed(t *testing.T) {
	for _, cfg := range []PacketLabConfig{QuickPacketLab(false), QuickPacketLab(true)} {
		recs, err := RunPacketLab(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		closed := 0
		for _, r := range recs {
			if r.ServerClosed {
				closed++
			}
		}
		if want := cfg.Slots * cfg.FlowsPerSlot; len(recs) != want || closed != want {
			t.Errorf("retrieve %t: %d storage records, %d server-closed; want %d of each", cfg.Retrieve, len(recs), closed, want)
		}
	}
}

// TestPacketRecordsCancelled: under a cancelled context the labs return
// ctx.Err() at either worker bound, with no lab goroutine left running,
// and the session retries on the next call instead of latching the error.
// The goroutine count may only not grow: a goroutine of an earlier test
// can exit during the call.
func TestPacketRecordsCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := &Session{Seed: 1, Quick: true, Fleet: fleet.Config{Workers: workers}}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		before := runtime.NumGoroutine()
		store, retr, err := s.PacketRecords(cancelled)
		if !errors.Is(err, context.Canceled) || store != nil || retr != nil {
			t.Fatalf("workers %d: cancelled labs: store=%d retr=%d err=%v", workers, len(store), len(retr), err)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("workers %d: %d goroutines before the labs, %d after", workers, before, after)
		}
		if testing.Short() {
			continue
		}
		store, retr, err = s.PacketRecords(context.Background())
		if err != nil || len(store) == 0 || len(retr) == 0 {
			t.Fatalf("workers %d: session latched the cancelled labs: store=%d retr=%d err=%v", workers, len(store), len(retr), err)
		}
	}
}

// TestPacketRecordsWorkerInvariance: the labs run one after the other at
// one worker and side by side at four, with identical records.
func TestPacketRecordsWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("packet labs are slow")
	}
	var got [2][2][]*traces.FlowRecord
	for i, workers := range []int{1, 4} {
		s := &Session{Seed: 1, Quick: true, Fleet: fleet.Config{Workers: workers}}
		store, retr, err := s.PacketRecords(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got[i] = [2][]*traces.FlowRecord{store, retr}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Fatal("labs at workers 1 and 4 returned different records")
	}
}
