package flowmodel

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/tstat"
	"insidedropbox/internal/wire"
)

func TestHandshakeRTTs(t *testing.T) {
	if HandshakeRTTs(3) != 3 {
		t.Fatalf("IW=3: %d RTTs", HandshakeRTTs(3))
	}
	if HandshakeRTTs(2) != 4 {
		t.Fatalf("IW=2: %d RTTs (pre-1.4.0 extra pause)", HandshakeRTTs(2))
	}
	if HandshakeRTTs(10) != 3 {
		t.Fatalf("IW=10: %d RTTs", HandshakeRTTs(10))
	}
}

func TestThetaShape(t *testing.T) {
	rtt := 90 * time.Millisecond
	// Tiny transfer: bounded by handshake+1 round = 4 RTTs.
	if got := ThetaLatency(100, rtt, 3); got != 4*rtt {
		t.Fatalf("tiny latency = %v", got)
	}
	// Monotone: more bytes, no lower latency; higher throughput bound.
	prevLat := time.Duration(0)
	prevTheta := 0.0
	for _, size := range []int64{1_000, 10_000, 100_000, 1_000_000, 10_000_000} {
		lat := ThetaLatency(size, rtt, 3)
		if lat < prevLat {
			t.Fatalf("latency decreased at %d", size)
		}
		th := Theta(size, rtt, 3)
		if th < prevTheta {
			t.Fatalf("theta decreased at %d: %f < %f", size, th, prevTheta)
		}
		prevLat, prevTheta = lat, th
	}
	// The paper's observation: a flow of ~50 kB cannot exceed ~1 Mbit/s at
	// 90 ms RTT.
	if th := Theta(50_000, rtt, 3); th > 1.2e6 {
		t.Fatalf("theta(50kB) = %f — slow start bound too loose", th)
	}
	if Theta(0, rtt, 3) != 0 {
		t.Fatal("theta of empty transfer")
	}
}

func TestGroupOpsV1252OnePerChunk(t *testing.T) {
	ops := dropbox.PlanTransfer(nil, capability.DropboxV1252(), []int{100, 200, 300})
	if len(ops) != 3 {
		t.Fatalf("ops = %d", len(ops))
	}
}

func TestGroupOpsV140Bundles(t *testing.T) {
	chunks := make([]int, 40)
	for i := range chunks {
		chunks[i] = 50_000
	}
	ops := dropbox.PlanTransfer(nil, capability.DropboxV140(), chunks)
	if len(ops) != 1 {
		t.Fatalf("40 small chunks should bundle into 1 op, got %d", len(ops))
	}
	// Large chunks break bundles.
	ops = dropbox.PlanTransfer(nil, capability.DropboxV140(), []int{4 << 20, 4 << 20})
	if len(ops) != 2 {
		t.Fatalf("two 4MB chunks = %d ops", len(ops))
	}
}

// TestSynthReactionLogsFollowParams feeds one Synth flows whose Params
// alternate between DefaultParams' reactions (70/45 ms) and the
// generator's (160/90 ms), or change the server's alone, sequential and
// pipelined: each record must equal a fresh Synthesize on an identically
// seeded Source, so the Synth's cached logarithms follow every change.
func TestSynthReactionLogsFollowParams(t *testing.T) {
	campus := DefaultParams(30 * time.Millisecond)
	gen, server := campus, campus
	gen.ClientReaction, gen.ServerReaction = 160*time.Millisecond, 90*time.Millisecond
	server.ServerReaction = 90 * time.Millisecond
	params := []Params{campus, gen, campus, server}
	var s Synth
	cached, fresh := simrand.New(9, "synth"), simrand.New(9, "synth")
	for i := 0; i < 24; i++ {
		p := params[i%len(params)]
		p.Caps.CommitPipelining = i/len(params)%2 == 1
		spec := StorageFlowSpec{Dir: classify.DirStore, ChunkWires: []int{30_000, 5_000, 80_000}, Start: time.Duration(i) * time.Minute}
		if i%3 == 0 {
			spec.Dir = classify.DirRetrieve
		}
		got := s.SynthesizeInto(new(traces.FlowRecord), cached, p, spec)
		if want := Synthesize(fresh, p, spec); !reflect.DeepEqual(got, want) {
			t.Fatalf("flow %d (reactions %v/%v): Synth gave\n%+v\nfresh Synthesize\n%+v",
				i, p.ClientReaction, p.ServerReaction, got, want)
		}
	}
}

func TestSynthesizedBytesFollowConstants(t *testing.T) {
	rng := simrand.New(3, "t")
	p := DefaultParams(90 * time.Millisecond)
	rec := Synthesize(rng, p, StorageFlowSpec{
		Dir: classify.DirStore, ChunkWires: []int{100_000, 100_000}, ServerClosesIdle: true,
	})
	wantUp := int64(294 + 2*tlssim.MessageWireSize(634+100_000))
	if rec.BytesUp != wantUp {
		t.Fatalf("bytes up = %d, want %d", rec.BytesUp, wantUp)
	}
	wantDown := int64(4103 + 2*tlssim.MessageWireSize(309) + 7)
	if rec.BytesDown != wantDown {
		t.Fatalf("bytes down = %d, want %d", rec.BytesDown, wantDown)
	}
	if rec.PSHDown != 5 { // hello+finish+2 OKs+alert
		t.Fatalf("psh down = %d", rec.PSHDown)
	}
	// The paper's estimators must recover the truth from this record.
	if classify.TagStorage(rec) != classify.DirStore {
		t.Fatal("synthesized store flow tagged retrieve")
	}
	if got := classify.EstimateChunks(rec, classify.DirStore); got != 2 {
		t.Fatalf("estimated chunks = %d", got)
	}
}

func TestSynthesizedRetrieveTagging(t *testing.T) {
	rng := simrand.New(4, "t")
	p := DefaultParams(90 * time.Millisecond)
	rec := Synthesize(rng, p, StorageFlowSpec{
		Dir: classify.DirRetrieve, ChunkWires: []int{500_000}, ServerClosesIdle: true,
	})
	if classify.TagStorage(rec) != classify.DirRetrieve {
		t.Fatal("synthesized retrieve flow tagged store")
	}
	if got := classify.EstimateChunks(rec, classify.DirRetrieve); got != 1 {
		t.Fatalf("estimated chunks = %d", got)
	}
	// Duration accounting must survive the 60 s idle-close compensation.
	d := classify.TransferDuration(rec, classify.DirRetrieve)
	if d > 30*time.Second {
		t.Fatalf("retrieve duration = %v — idle close not compensated", d)
	}
}

// packetTruth runs the same transfer through the full packet-level stack,
// a store through Device.Upload or a retrieve of staged chunks through
// Device.Download, with every chunk's wire size its raw size times ratio.
// It returns the probe's record and the storage operations the service
// answered.
func packetTruth(t *testing.T, dir classify.Direction, chunkSizes []int, caps capability.Profile, ratio float64) (*traces.FlowRecord, int) {
	t.Helper()
	sched := simtime.NewScheduler()
	rng := simrand.New(21, "calib")
	net := netem.New(sched, rng)
	net.SetCoreDelay("vp", dnssim.AmazonDC, 45*time.Millisecond)
	net.SetCoreDelay("vp", dnssim.DropboxDC, 85*time.Millisecond)
	dir2 := dnssim.Build(dnssim.Layout{MetaIPs: 2, NotifyIPs: 2, StorageNames: 4, StorageIPs: 4})
	svc := dropbox.NewService(dropbox.ServiceConfig{
		Sched: sched, Net: net, Rng: rng, Dir: dir2, ServerIW: caps.IW(),
	})
	resolver := dnssim.NewResolver(dir2, rng)
	probe := tstat.New(sched, "calib")
	var recs []*traces.FlowRecord
	probe.OnRecord = func(r *traces.FlowRecord) { recs = append(recs, r) }
	resolver.Log = probe.ObserveDNS
	net.AttachTap("vp", probe)

	host := net.AddHost(wire.MakeIP(10, 0, 0, 1), "vp", netem.WiredWorkstation())
	stack := tcpsim.NewStack(host, sched, rng, tcpsim.DefaultIW)
	acct := svc.Meta.CreateAccount()
	dev, err := dropbox.NewDevice(dropbox.ClientConfig{
		Sched: sched, Rng: rng, Service: svc, Resolver: resolver,
		Stack: stack, Caps: caps,
	}, acct.ID)
	if err != nil {
		t.Fatal(err)
	}
	var refs []chunker.Ref
	for i, sz := range chunkSizes {
		f := chunker.SyntheticFile{Seed: uint64(i)*31 + 5, Size: int64(sz)}
		refs = append(refs, f.Refs()...)
	}
	wireOf := func(r chunker.Ref) int { return max(1, int(float64(r.Size)*ratio)) }

	dev.Start()
	if dir == classify.DirRetrieve {
		for _, r := range refs {
			svc.SeedChunk(r, wireOf(r))
		}
		sched.After(2*time.Second, func() { dev.Download(refs, wireOf, nil) })
	} else {
		sched.After(2*time.Second, func() { dev.Upload(acct.Root, refs, wireOf, nil) })
	}
	sched.RunUntil(simtime.Time(20 * time.Minute))
	probe.FlushAll()
	for _, r := range recs {
		if strings.HasPrefix(r.FQDN, "dl-client") {
			return r, svc.StoreOps + svc.RetrieveOps
		}
	}
	t.Fatal("no storage flow captured")
	return nil, 0
}

func TestCalibrationStoreV1252(t *testing.T) {
	chunks := []int{150_000, 150_000, 150_000, 150_000}
	truth, _ := packetTruth(t, classify.DirStore, chunks, capability.DropboxV1252(), 1)

	rng := simrand.New(22, "calib2")
	p := DefaultParams(truth.MinRTT)
	model := Synthesize(rng, p, StorageFlowSpec{
		Dir: classify.DirStore, ChunkWires: chunks,
		Start: truth.FirstPacket, ServerClosesIdle: truth.ServerClosed,
	})

	// Bytes agree exactly.
	if model.BytesUp != truth.BytesUp {
		t.Errorf("bytes up: model %d vs packet %d", model.BytesUp, truth.BytesUp)
	}
	if model.BytesDown != truth.BytesDown {
		t.Errorf("bytes down: model %d vs packet %d", model.BytesDown, truth.BytesDown)
	}
	// PSH agree exactly.
	if model.PSHUp != truth.PSHUp || model.PSHDown != truth.PSHDown {
		t.Errorf("psh: model %d/%d vs packet %d/%d",
			model.PSHUp, model.PSHDown, truth.PSHUp, truth.PSHDown)
	}
	// Durations agree within tolerance.
	md := classify.TransferDuration(model, classify.DirStore).Seconds()
	td := classify.TransferDuration(truth, classify.DirStore).Seconds()
	if ratio := md / td; math.Abs(ratio-1) > 0.35 {
		t.Errorf("duration: model %.2fs vs packet %.2fs (ratio %.2f)", md, td, ratio)
	}
}

func TestCalibrationRetrieveV1252(t *testing.T) {
	chunks := []int{150_000, 150_000, 150_000, 150_000}
	truth, _ := packetTruth(t, classify.DirRetrieve, chunks, capability.DropboxV1252(), 1)

	rng := simrand.New(24, "calib4")
	p := DefaultParams(truth.MinRTT)
	model := Synthesize(rng, p, StorageFlowSpec{
		Dir: classify.DirRetrieve, ChunkWires: chunks,
		Start: truth.FirstPacket, ServerClosesIdle: truth.ServerClosed,
	})
	if model.BytesDown != truth.BytesDown {
		t.Errorf("bytes down: model %d vs packet %d", model.BytesDown, truth.BytesDown)
	}
	if model.PSHUp != truth.PSHUp || model.PSHDown != truth.PSHDown {
		t.Errorf("psh: model %d/%d vs packet %d/%d",
			model.PSHUp, model.PSHDown, truth.PSHUp, truth.PSHDown)
	}
	md := classify.TransferDuration(model, classify.DirRetrieve).Seconds()
	td := classify.TransferDuration(truth, classify.DirRetrieve).Seconds()
	if ratio := md / td; math.Abs(ratio-1) > 0.35 {
		t.Errorf("duration: model %.2fs vs packet %.2fs (ratio %.2f)", md, td, ratio)
	}
}

func TestCalibrationStoreV140(t *testing.T) {
	chunks := []int{80_000, 80_000, 80_000, 80_000, 80_000, 80_000}
	truth, _ := packetTruth(t, classify.DirStore, chunks, capability.DropboxV140(), 1)
	rng := simrand.New(23, "calib3")
	p := DefaultParams(truth.MinRTT)
	p.Caps = capability.DropboxV140()
	model := Synthesize(rng, p, StorageFlowSpec{
		Dir: classify.DirStore, ChunkWires: chunks,
		Start: truth.FirstPacket, ServerClosesIdle: truth.ServerClosed,
	})
	if model.BytesUp != truth.BytesUp {
		t.Errorf("bytes up: model %d vs packet %d", model.BytesUp, truth.BytesUp)
	}
	if model.PSHDown != truth.PSHDown {
		t.Errorf("psh down: model %d vs packet %d", model.PSHDown, truth.PSHDown)
	}
}

// TestCalibrationRetrieveV140 retrieves two compressible chunks as a 1.4.0
// client. Each is 1.1 MB raw, past the 1 MB large-chunk cut of the 4 MB
// bundle target, but moves 550 kB on the wire; both engines plan on wire
// sizes, so the packet client must bundle them into the one operation the
// model synthesizes.
func TestCalibrationRetrieveV140(t *testing.T) {
	const raw, ratio = 1_100_000, 0.5
	caps := capability.DropboxV140()
	truth, ops := packetTruth(t, classify.DirRetrieve, []int{raw, raw}, caps, ratio)

	wires := []int{raw * ratio, raw * ratio}
	if want := len(dropbox.PlanTransfer(nil, caps, wires)); ops != want || want != 1 {
		t.Errorf("ops: packet %d vs plan %d, want 1", ops, want)
	}
	rng := simrand.New(25, "calib5")
	p := DefaultParams(truth.MinRTT)
	p.Caps = caps
	model := Synthesize(rng, p, StorageFlowSpec{
		Dir: classify.DirRetrieve, ChunkWires: wires,
		Start: truth.FirstPacket, ServerClosesIdle: truth.ServerClosed,
	})
	if model.BytesDown != truth.BytesDown {
		t.Errorf("bytes down: model %d vs packet %d", model.BytesDown, truth.BytesDown)
	}
	if model.PSHUp != truth.PSHUp || model.PSHDown != truth.PSHDown {
		t.Errorf("psh: model %d/%d vs packet %d/%d",
			model.PSHUp, model.PSHDown, truth.PSHUp, truth.PSHDown)
	}
}

func TestModelShowsSequentialAckPenalty(t *testing.T) {
	// Many small chunks vs one big transfer of the same volume: the paper's
	// core performance finding is that the former is much slower.
	rng := simrand.New(5, "t")
	p := DefaultParams(90 * time.Millisecond)
	small := make([]int, 50)
	for i := range small {
		small[i] = 20_000
	}
	manyRec := Synthesize(rng, p, StorageFlowSpec{Dir: classify.DirStore, ChunkWires: small})
	oneRec := Synthesize(rng, p, StorageFlowSpec{Dir: classify.DirStore, ChunkWires: []int{1_000_000}})
	many := classify.TransferDuration(manyRec, classify.DirStore)
	one := classify.TransferDuration(oneRec, classify.DirStore)
	if many < 3*one {
		t.Fatalf("sequential acks: 50x20kB took %v, 1x1MB took %v — penalty missing", many, one)
	}
	// And v1.4.0 bundling removes most of it.
	p140 := p
	p140.Caps = capability.DropboxV140()
	rec140 := Synthesize(rng, p140, StorageFlowSpec{Dir: classify.DirStore, ChunkWires: small})
	bundled := classify.TransferDuration(rec140, classify.DirStore)
	if bundled*2 > many {
		t.Fatalf("bundling did not help: %v vs %v", bundled, many)
	}
}

func TestThroughputBelowTheta(t *testing.T) {
	// Synthesized single-chunk flows must respect the slow-start bound
	// (Fig. 9: θ approximates the maximum throughput).
	rng := simrand.New(6, "t")
	p := DefaultParams(90 * time.Millisecond)
	for _, size := range []int{5_000, 50_000, 500_000, 5_000_000} {
		rec := Synthesize(rng, p, StorageFlowSpec{Dir: classify.DirStore, ChunkWires: []int{size}})
		tp := classify.Throughput(rec, classify.DirStore)
		bound := Theta(classify.Payload(rec, classify.DirStore), p.RTT, p.IW)
		if tp > bound*1.15 {
			t.Fatalf("size %d: throughput %.0f exceeds θ %.0f", size, tp, bound)
		}
	}
}
