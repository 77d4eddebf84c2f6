package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/flowmodel"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/tcpsim"
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/tstat"
	"insidedropbox/internal/wire"
)

// PacketLabConfig drives the packet-level storage-performance experiment
// behind Figs. 9 and 10: stratified flow sizes pushed through the real
// protocol over the real simulated TCP path, measured by the real probe.
// The lab clients send one MsgStore or MsgRetrieve per chunk themselves,
// so the lab takes no client capability profile.
type PacketLabConfig struct {
	Seed int64
	// FlowsPerSlot flows are generated in each logarithmic size slot.
	FlowsPerSlot int
	// MinBytes/MaxBytes bound the stratified payload sizes.
	MinBytes, MaxBytes int64
	// Slots is the number of logarithmic size slots.
	Slots int
	// ServerIW is the storage servers' initial window (2 = pre-1.4.0).
	ServerIW int
	// Retrieve generates download flows instead of uploads.
	Retrieve bool
	// RTT is the one-way probe->storage core delay (default 45 ms,
	// approximating Campus 2's ≈95 ms round trip).
	CoreDelay time.Duration
	// Access is the client access profile (default campus wireless).
	Access netem.AccessProfile
}

// DefaultPacketLab sizes the lab for the full Fig. 9 regeneration.
func DefaultPacketLab(retrieve bool) PacketLabConfig {
	return PacketLabConfig{
		Seed: 99, FlowsPerSlot: 12, Slots: 16,
		MinBytes: 1 << 10, MaxBytes: 64 << 20,
		ServerIW: 2, Retrieve: retrieve,
		CoreDelay: 45 * time.Millisecond,
		Access:    netem.CampusWireless(),
	}
}

// QuickPacketLab is a small variant for tests and -short benchmarks.
func QuickPacketLab(retrieve bool) PacketLabConfig {
	cfg := DefaultPacketLab(retrieve)
	cfg.FlowsPerSlot = 3
	cfg.Slots = 8
	cfg.MaxBytes = 4 << 20
	return cfg
}

// RunPacketLab executes the lab and returns the probe's flow records for
// storage flows, annotated with the lab's path RTT. Cancelling ctx stops
// the simulation at its next bounded slice (a few minutes of virtual
// time, milliseconds of wall clock) and returns ctx.Err().
func RunPacketLab(ctx context.Context, cfg PacketLabConfig) ([]*traces.FlowRecord, error) {
	sched := simtime.NewScheduler()
	rng := simrand.New(cfg.Seed, "packetlab")
	net := netem.New(sched, rng)
	net.SetCoreDelay("lab", dnssim.AmazonDC, cfg.CoreDelay)
	net.SetCoreDelay("lab", dnssim.DropboxDC, cfg.CoreDelay+40*time.Millisecond)
	dir := dnssim.Build(dnssim.Layout{MetaIPs: 2, NotifyIPs: 2, StorageNames: 64, StorageIPs: 64})
	scfg := tcpsim.DefaultConfig()
	scfg.InitialWindow = cfg.ServerIW
	svc := dropbox.NewService(dropbox.ServiceConfig{
		Sched: sched, Net: net, Rng: rng, Dir: dir, ServerTCP: scfg,
	})
	resolver := dnssim.NewResolver(dir, rng)
	probe := tstat.New(sched, tstat.DefaultConfig("packetlab"))
	var recs []*traces.FlowRecord
	probe.OnRecord = func(r *traces.FlowRecord) { recs = append(recs, r) }
	resolver.Log = probe.ObserveDNS
	net.AttachTap("lab", probe)

	// A small pool of lab clients, each running its flows sequentially.
	const clients = 6
	type labClient struct {
		stack *tcpsim.Stack
		rng   *simrand.Source
	}
	var lcs []*labClient
	for i := 0; i < clients; i++ {
		ip := wire.MakeIP(10, 10, 0, byte(i+1))
		host := net.AddHost(ip, "lab", cfg.Access)
		lcs = append(lcs, &labClient{
			stack: tcpsim.NewStack(host, sched, rng, tcpsim.DefaultConfig()),
			rng:   rng.Fork(fmt.Sprintf("lab%d", i)),
		})
	}

	// Stratified flow specs.
	type spec struct {
		chunks []chunker.Ref
		wires  []int
	}
	var specs []spec
	bins := analysis.LogBins{Lo: float64(cfg.MinBytes), Hi: float64(cfg.MaxBytes), N: cfg.Slots}
	seedCtr := uint64(1)
	for slot := 0; slot < cfg.Slots; slot++ {
		for f := 0; f < cfg.FlowsPerSlot; f++ {
			size := int64(bins.Center(slot) * rng.Uniform(0.7, 1.4))
			if size < cfg.MinBytes {
				size = cfg.MinBytes
			}
			// Chunk-count category as in Fig. 9's legend.
			minChunks := int((size + chunker.MaxChunkSize - 1) / chunker.MaxChunkSize)
			want := []int{1, 2 + rng.Intn(4), 6 + rng.Intn(45), 51 + rng.Intn(50)}[f%4]
			if want < minChunks {
				want = minChunks
			}
			if int64(want) > size {
				want = int(size)
			}
			if want > 100 {
				want = 100
			}
			per := size / int64(want)
			var refs []chunker.Ref
			var wires []int
			for i := 0; i < want; i++ {
				sz := per
				if i == want-1 {
					sz = size - per*int64(want-1)
				}
				if sz < 1 {
					sz = 1
				}
				sf := chunker.SyntheticFile{Seed: seedCtr, Size: sz}
				seedCtr++
				for _, r := range sf.Refs() {
					refs = append(refs, r)
					wires = append(wires, r.Size)
				}
			}
			specs = append(specs, spec{chunks: refs, wires: wires})
		}
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })

	// For retrieve labs, stage content server-side.
	if cfg.Retrieve {
		for _, sp := range specs {
			for i, r := range sp.chunks {
				svc.SeedChunk(r, sp.wires[i])
			}
		}
	}

	// Each lab client drains its share of specs sequentially over raw
	// storage connections, mimicking the client's op sequence.
	remaining := len(specs)
	var runSpec func(lc *labClient, queue []spec)
	runSpec = func(lc *labClient, queue []spec) {
		if len(queue) == 0 {
			return
		}
		sp := queue[0]
		rest := queue[1:]
		specDone := false
		finish := func() {
			if specDone {
				return
			}
			specDone = true
			remaining--
			runSpec(lc, rest)
		}
		name := dir.StorageNames[lc.rng.Intn(len(dir.StorageNames))]
		ip, _ := resolver.Resolve(sched.Now(), lc.stack.Host.IP, name)
		conn := lc.stack.Dial(ip, 443)
		sess := tlssim.NewClient(conn, name, tlssim.DefaultHandshake())
		svc.RegisterPending(conn.LocalEndpoint(), sess)
		idx := 0
		reaction := func() time.Duration {
			return time.Duration(lc.rng.LogNormalMedian(float64(70*time.Millisecond), 0.5))
		}
		issue := func() {
			if cfg.Retrieve {
				req := dropbox.RetrieveClientOverheadMin + lc.rng.Intn(64)
				sess.SendParts(dropbox.MsgRetrieve{Hash: sp.chunks[idx].Hash}, req, 2)
			} else {
				w := sp.wires[idx]
				sess.Send(dropbox.MsgStore{Ref: sp.chunks[idx], WireSize: w},
					dropbox.StoreClientOverhead+w)
			}
		}
		sess.OnEstablished = func() { issue() }
		sess.OnMessage = func(meta any, size int) {
			idx++
			if idx < len(sp.chunks) {
				sched.After(reaction(), issue)
				return
			}
			// Flow done: abort after a short linger (the probe sees the
			// RST; the 60 s server alert path is exercised elsewhere).
			sched.After(time.Duration(lc.rng.Uniform(0.2, 2))*time.Second, func() {
				sess.Abort()
				sched.After(5*time.Second, finish)
			})
		}
		sess.OnReset = func() { finish() }
		sess.OnPeerClose = func() {
			sess.Abort()
			finish()
		}
	}
	per := (len(specs) + clients - 1) / clients
	for i, lc := range lcs {
		lo := i * per
		hi := lo + per
		if lo >= len(specs) {
			break
		}
		if hi > len(specs) {
			hi = len(specs)
		}
		queue := specs[lo:hi]
		lc := lc
		sched.After(time.Duration(i)*200*time.Millisecond, func() { runSpec(lc, queue) })
	}
	// The probe's sweep ticker keeps the scheduler populated forever, so
	// drive the simulation in bounded slices until all specs complete; the
	// slice boundaries double as the cancellation points.
	const labCap = 24 * time.Hour
	for remaining > 0 && sched.Now() < simtime.Time(labCap) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sched.RunFor(5 * time.Minute)
	}
	sched.RunFor(2 * time.Minute) // let trailing teardowns settle
	probe.FlushAll()

	var storage []*traces.FlowRecord
	for _, r := range recs {
		if classify.DropboxService(r) == dnssim.SvcClientStorage && r.BytesUp+r.BytesDown > 5000 {
			storage = append(storage, r)
		}
	}
	return storage, nil
}

// chunkGroup labels a flow by its estimated chunk count, as Fig. 9 does.
func chunkGroup(chunks int) string {
	switch {
	case chunks <= 1:
		return "1"
	case chunks <= 5:
		return "2-5"
	case chunks <= 50:
		return "6-50"
	default:
		return "51-100"
	}
}

// Figure9 reproduces the storage throughput scatter with the θ bound.
func Figure9(storeRecs, retrRecs []*traces.FlowRecord, rtt time.Duration, iw int) *Result {
	res := newResult("figure9", "Figure 9: Throughput of storage flows (packet-level lab)")
	panels := []struct {
		name string
		dir  classify.Direction
		recs []*traces.FlowRecord
	}{
		{"(a) store", classify.DirStore, storeRecs},
		{"(b) retrieve", classify.DirRetrieve, retrRecs},
	}
	for _, panel := range panels {
		plot := analysis.NewPlot(fmt.Sprintf("%s %s", res.Title, panel.name),
			"payload (bytes)", "throughput (bit/s)")
		plot.LogX, plot.LogY = true, true
		byGroup := map[string][2][]float64{}
		var all []float64
		var aboveTheta, n int
		for _, r := range panel.recs {
			if classify.TagStorage(r) != panel.dir {
				continue
			}
			payload := classify.Payload(r, panel.dir)
			if payload <= 0 {
				continue
			}
			tp := classify.Throughput(r, panel.dir)
			if tp <= 0 {
				continue
			}
			chunks := classify.EstimateChunks(r, panel.dir)
			g := chunkGroup(chunks)
			e := byGroup[g]
			e[0] = append(e[0], float64(payload))
			e[1] = append(e[1], tp)
			byGroup[g] = e
			all = append(all, tp)
			n++
			if tp > flowmodel.Theta(payload, rtt, iw)*1.2 {
				aboveTheta++
			}
		}
		for _, g := range []string{"1", "2-5", "6-50", "51-100"} {
			e := byGroup[g]
			if len(e[0]) > 0 {
				plot.AddSeries(g+" chunks", e[0], e[1])
			}
		}
		// θ bound curve.
		var tx, ty []float64
		for b := 256.0; b < 1e9; b *= 2 {
			tx = append(tx, b)
			ty = append(ty, flowmodel.Theta(int64(b), rtt, iw))
		}
		plot.AddSeries("theta", tx, ty)
		res.addText(plot.String())
		key := panel.dir.String()
		res.Metrics["avg_tp_"+key] = analysis.Mean(all)
		res.Metrics["max_tp_"+key] = analysis.NewECDF(all).Max()
		res.Metrics["n_"+key] = float64(n)
		if n > 0 {
			res.Metrics["above_theta_frac_"+key] = float64(aboveTheta) / float64(n)
		}
		res.addText(fmt.Sprintf("avg throughput (%s) = %s; max = %s; flows above 1.2·θ: %.1f%%\n\n",
			key, analysis.HumanRate(res.Metrics["avg_tp_"+key]),
			analysis.HumanRate(res.Metrics["max_tp_"+key]),
			100*res.Metrics["above_theta_frac_"+key]))
	}
	return res
}

// Figure10 reproduces the minimum flow duration per size slot and chunk
// group: flows with many chunks never finish fast, regardless of size.
func Figure10(storeRecs, retrRecs []*traces.FlowRecord) *Result {
	res := newResult("figure10", "Figure 10: Minimum duration of flows by chunk group")
	panels := []struct {
		name string
		dir  classify.Direction
		recs []*traces.FlowRecord
	}{
		{"store", classify.DirStore, storeRecs},
		{"retrieve", classify.DirRetrieve, retrRecs},
	}
	for _, panel := range panels {
		plot := analysis.NewPlot(fmt.Sprintf("%s — %s", res.Title, panel.name),
			"payload (bytes)", "min duration (s)")
		plot.LogX, plot.LogY = true, true
		bins := analysis.LogBins{Lo: 1e3, Hi: 1e9, N: 24}
		type key struct {
			group string
			slot  int
		}
		best := map[key]float64{}
		for _, r := range panel.recs {
			if classify.TagStorage(r) != panel.dir {
				continue
			}
			payload := float64(classify.Payload(r, panel.dir))
			slot := bins.Index(payload)
			if slot < 0 {
				continue
			}
			dur := classify.TransferDuration(r, panel.dir).Seconds()
			g := chunkGroup(classify.EstimateChunks(r, panel.dir))
			k := key{g, slot}
			if cur, ok := best[k]; !ok || dur < cur {
				best[k] = dur
			}
		}
		groupMin := map[string]float64{}
		for _, g := range []string{"1", "2-5", "6-50", "51-100"} {
			var xs, ys []float64
			minDur := math.Inf(1)
			for slot := 0; slot < bins.N; slot++ {
				if d, ok := best[key{g, slot}]; ok {
					xs = append(xs, bins.Center(slot))
					ys = append(ys, d)
					if d < minDur {
						minDur = d
					}
				}
			}
			if len(xs) > 0 {
				plot.AddSeries(g+" chunks", xs, ys)
				groupMin[g] = minDur
			}
		}
		res.addText(plot.String())
		for g, d := range groupMin {
			res.Metrics[fmt.Sprintf("min_dur_%s_%s", panel.dir.String(), g)] = d
		}
	}
	res.addText("Flows with many chunks have a duration floor set by sequential\n" +
		"acknowledgments (≈1 RTT + reaction time per chunk), regardless of size\n" +
		"(Sec. 4.4.2).\n")
	return res
}

// RunPacketLabs executes both labs and renders Figs. 9 and 10.
func RunPacketLabs(ctx context.Context, store, retr PacketLabConfig) (fig9, fig10 *Result, err error) {
	storeRecs, err := RunPacketLab(ctx, store)
	if err != nil {
		return nil, nil, err
	}
	retrRecs, err := RunPacketLab(ctx, retr)
	if err != nil {
		return nil, nil, err
	}
	rtt := 2*store.CoreDelay + time.Millisecond
	fig9 = Figure9(storeRecs, retrRecs, rtt, store.ServerIW)
	fig10 = Figure10(storeRecs, retrRecs)
	return fig9, fig10, nil
}
