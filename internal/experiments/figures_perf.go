package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/flowmodel"
	"insidedropbox/internal/netem"
	"insidedropbox/internal/simtime"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/tstat"
	"insidedropbox/internal/wire"
)

// PacketLabConfig drives the packet-level storage-performance experiment
// behind Figs. 9 and 10: stratified flow sizes pushed through the real
// protocol over the real simulated TCP path, measured by the real probe.
type PacketLabConfig struct {
	// FlowsPerSlot flows are generated in each logarithmic size slot.
	FlowsPerSlot int
	// Slots is the number of logarithmic size slots.
	Slots int
	// MaxBytes bounds the stratified payload sizes from above; labMinBytes
	// bounds them from below.
	MaxBytes int64
	// Retrieve generates download flows instead of uploads.
	Retrieve bool
}

// The lab's fixed settings: its rng seed and the smallest flow payload.
const (
	labSeed     = 99
	labMinBytes = 1 << 10
)

// labRTT is the lab's probe->storage round trip Fig. 9's θ bound uses: the
// core both ways plus a millisecond for the server side of the path.
const labRTT = 2*labCoreDelay + time.Millisecond

// DefaultPacketLab sizes the lab for the full Fig. 9 regeneration.
func DefaultPacketLab(retrieve bool) PacketLabConfig {
	return PacketLabConfig{FlowsPerSlot: 12, Slots: 16, MaxBytes: 64 << 20, Retrieve: retrieve}
}

// QuickPacketLab is a small variant for tests and -short benchmarks.
func QuickPacketLab(retrieve bool) PacketLabConfig {
	return PacketLabConfig{FlowsPerSlot: 3, Slots: 8, MaxBytes: 4 << 20, Retrieve: retrieve}
}

// RunPacketLab executes the lab and returns the probe's flow records for
// storage flows. Six 1.2.52 devices, one account each, run the transfers
// through Device.Upload or Device.Download. Cancelling ctx stops the
// simulation at its next bounded slice (a few minutes of virtual time,
// milliseconds of wall clock) and returns ctx.Err().
func RunPacketLab(ctx context.Context, cfg PacketLabConfig) ([]*traces.FlowRecord, error) {
	w := newLabWorld(labSeed, "packetlab", 64, labCaps.IW())
	sched, rng, svc := w.sched, w.rng, w.svc
	probe := tstat.New(sched, "packetlab")
	var recs []*traces.FlowRecord
	probe.OnRecord = func(r *traces.FlowRecord) { recs = append(recs, r) }
	w.resolver.Log = probe.ObserveDNS
	w.net.AttachTap(labSite, probe)

	// Stratified transfers, each the chunk list of one storage flow.
	var transfers [][]chunker.Ref
	bins := analysis.LogBins{Lo: labMinBytes, Hi: float64(cfg.MaxBytes), N: cfg.Slots}
	seedCtr := uint64(1)
	for slot := 0; slot < cfg.Slots; slot++ {
		for f := 0; f < cfg.FlowsPerSlot; f++ {
			size := int64(bins.Center(slot) * rng.Uniform(0.7, 1.4))
			if size < labMinBytes {
				size = labMinBytes
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
				refs = append(refs, sf.Refs()...)
			}
			transfers = append(transfers, refs)
		}
	}
	rng.Shuffle(len(transfers), func(i, j int) { transfers[i], transfers[j] = transfers[j], transfers[i] })

	// For retrieve labs, stage content server-side.
	if cfg.Retrieve {
		for _, refs := range transfers {
			for _, r := range refs {
				svc.SeedChunk(r, r.Size)
			}
		}
	}

	// Each device runs its share of the transfers one after another. The
	// next starts once the server has closed the previous flow for
	// idleness, so every transfer is one storage flow, ended as in Fig. 19.
	wireOf := func(r chunker.Ref) int { return r.Size }
	remaining := len(transfers)
	var run func(dev *dropbox.Device, queue [][]chunker.Ref)
	run = func(dev *dropbox.Device, queue [][]chunker.Ref) {
		if len(queue) == 0 {
			return
		}
		next := func() {
			sched.After(dropbox.StorageIdleTimeout+5*time.Second, func() {
				remaining--
				run(dev, queue[1:])
			})
		}
		if cfg.Retrieve {
			dev.Download(queue[0], wireOf, next)
		} else {
			dev.Upload(svc.Meta.Account(dev.Account).Root, queue[0], wireOf, next)
		}
	}
	const devices = 6
	per := (len(transfers) + devices - 1) / devices
	for i := range devices {
		acct := svc.Meta.CreateAccount()
		dev := w.device(wire.MakeIP(10, 10, 0, byte(i+1)), netem.CampusWireless(), acct.ID)
		dev.Start()
		queue := transfers[min(i*per, len(transfers)):min((i+1)*per, len(transfers))]
		sched.After(3*time.Second+time.Duration(i)*200*time.Millisecond, func() { run(dev, queue) })
	}
	// The probe's sweep ticker keeps the scheduler populated forever, so
	// drive the simulation in bounded slices until all transfers complete;
	// the slice boundaries double as the cancellation points.
	const labCap = 24 * time.Hour
	for remaining > 0 && sched.Now() < simtime.Time(labCap) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sched.RunFor(5 * time.Minute)
	}
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
func Figure9(storeRecs, retrRecs []*traces.FlowRecord) *Result {
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
			if tp > flowmodel.Theta(payload, labRTT, labCaps.IW())*1.2 {
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
			ty = append(ty, flowmodel.Theta(int64(b), labRTT, labCaps.IW()))
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

// runPacketLabs runs the store and the retrieve lab side by side when the
// worker bound (0 meaning GOMAXPROCS) is at least 2, and one after the
// other at 1. Each lab owns its scheduler, network and probe, so the
// records do not depend on the bound. The first error cancels the
// sibling lab; it returns once both have exited.
func runPacketLabs(ctx context.Context, store, retr PacketLabConfig, workers int) (storeRecs, retrRecs []*traces.FlowRecord, err error) {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 2 {
		if storeRecs, err = RunPacketLab(ctx, store); err == nil {
			retrRecs, err = RunPacketLab(ctx, retr)
		}
	} else {
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		var retrErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			if retrRecs, retrErr = RunPacketLab(ctx, retr); retrErr != nil {
				cancel()
			}
		}()
		if storeRecs, err = RunPacketLab(ctx, store); err != nil {
			cancel()
		}
		<-done
		err = cmp.Or(err, retrErr)
	}
	if err != nil {
		return nil, nil, err
	}
	return storeRecs, retrRecs, nil
}
