package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/chunker"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dropbox"
	"insidedropbox/internal/flowmodel"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/tlssim"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

// Constant draw parameters' logarithms and exponentials, taken once: exactly,
// LogNormal(math.Log(m), σ) is LogNormalMedian(m, σ), PoissonExp(math.Exp(-λ)) Poisson(λ).
var (
	ln15min, ln35min       = math.Log(float64(15 * time.Minute)), math.Log(float64(35 * time.Minute))
	ln2h, ln6h, ln7h       = math.Log(float64(2 * time.Hour)), math.Log(float64(6 * time.Hour)), math.Log(float64(7 * time.Hour))
	ln3kB, ln9kB, ln30kB   = math.Log(3e3), math.Log(9e3), math.Log(30e3)
	ln120kB, ln250kB       = math.Log(120e3), math.Log(250e3)
	ln400kB, ln2MB, ln40MB = math.Log(400e3), math.Log(2e6), math.Log(40e6)
	expNeg1p4, expNeg1p6   = math.Exp(-1.4), math.Exp(-1.6)
)

// Interned hostname tables: the record hot path stamps one of ~520 storage
// SNIs and 20 notify FQDNs onto nearly every flow, so formatting them per
// record (the old fmt.Sprintf path) dominated the allocation profile.
// They are built once at package init and shared by all shards.
var (
	storageSNIs = func() [520]string {
		var s [520]string
		for i := range s {
			s[i] = "dl-client" + strconv.Itoa(i+1) + ".dropbox.com"
		}
		return s
	}()
	notifyFQDNs = func() [20]string {
		var s [20]string
		for i := range s {
			s[i] = "notify" + strconv.Itoa(i+1) + ".dropbox.com"
		}
		return s
	}()
)

// Dataset is the flow-level outcome of one vantage point campaign: the
// records the probe would have exported plus the aggregate denominators the
// popularity figures need.
type Dataset struct {
	Cfg     VPConfig
	Records []*traces.FlowRecord

	// BackgroundByDay is non-cloud traffic volume per day in bytes
	// (denominator of Table 2 and Fig. 3); YouTubeByDay carves out YouTube.
	BackgroundByDay []float64
	YouTubeByDay    []float64

	// Ground truth for validating probe-side inference.
	DropboxHouseholds int
	DropboxDevices    int
}

// session is one device-online interval.
type session struct {
	start, end time.Duration
}

// device is a generated Dropbox client installation. Its sessions and
// events are per-shard buffers lent for one household; namespaces is the
// one slice allocated afresh per device, because emitted notify records
// carry it as NotifyNamespaces and a stream consumer may read them long
// after the household is done.
type device struct {
	host       uint64
	namespaces []uint32
	natChopped bool
	sessions   []session
	access     AccessKind
	// cohort is the device's behavioral cohort (nil without a plan).
	cohort *Cohort
	// events accumulates the device's pending synchronization events while
	// a household is generated, then is sorted and drained in time order
	// (the former map[*device][]syncEvent, flattened onto the device).
	events []syncEvent
}

// household is one subscriber line.
type household struct {
	ip      wire.IP
	group   classify.UserGroup
	devices []*device
}

// generator carries the run state of one shard.
type generator struct {
	cfg     VPConfig
	caps    capability.Profile // capability profile of the current device
	rng     *simrand.Source
	emit    func(*traces.FlowRecord)
	alloc   func() *traces.FlowRecord
	free    func(*traces.FlowRecord)
	stats   ShardStats
	outage  []bool // per-day probe outage, nil when none configured
	horizon time.Duration

	// Cohort state: plan is cfg.Cohorts, and cohort tracks the device
	// being generated (nil between devices and on the legacy path).
	plan   *CohortPlan
	cohort *Cohort

	nextHost uint64
	nextNS   uint32

	storagePool int // number of storage server IPs

	// Per-shard scratch reused across flows (never escapes a call).
	synth flowmodel.Synth
	wires []int
	ops   []dropbox.PlanOp

	// Per-shard scratch reused across households: slot k's event and
	// session buffers are lent to a household's k-th device and handed
	// back after its drain; starts, files and order hold one device's
	// session starts, one start-up sync's list and one drain order.
	events       [][]syncEvent
	sessions     [][]session
	starts       []time.Duration
	files        []int64
	order        drainOrder
	deviceCounts [2]*simrand.WeightedChoice // Fig. 12 samplers, built once

	// filesArena is a slab backing one household's changed-file lists:
	// lists are carved off sequentially, the offset goes back to 0 when
	// the next household starts (the last one's lists died with its
	// drained events), and a full slab is replaced, never written over,
	// so a live list is never reused (see allocFiles).
	filesArena []int64
	filesOff   int
}

// newRecord returns a zero-valued record from the sink's allocator (a
// fresh allocation when the sink supplies none).
func (g *generator) newRecord() *traces.FlowRecord { return g.alloc() }

// ShardStats is the non-record outcome of one shard's generation: the ground
// truth counters plus (on shard 0 only) the population-level background
// volume arrays. Record streams flow through the emit callback instead.
type ShardStats struct {
	Records int // records emitted (after outage filtering)

	// Ground truth for validating probe-side inference.
	Households, Devices int

	// SyncEvents counts the synthesized device sync events (store and
	// retrieve batches) that drove storage-flow generation.
	SyncEvents int

	// Background arrays describe the whole vantage point population, so
	// only shard 0 produces them (nil on every other shard).
	BackgroundByDay []float64
	YouTubeByDay    []float64

	// Per-cohort ground truth, keyed by cohort name (nil without a
	// cohort plan). CohortRecords attributes device-level flows only;
	// household-level web/API/provider traffic stays unattributed, so the
	// values sum to at most Records.
	CohortDevices map[string]int
	CohortRecords map[string]int
}

func (s *ShardStats) addCohortDevice(name string) {
	if s.CohortDevices == nil {
		s.CohortDevices = make(map[string]int)
	}
	s.CohortDevices[name]++
}

func (s *ShardStats) addCohortRecord(name string) {
	if s.CohortRecords == nil {
		s.CohortRecords = make(map[string]int)
	}
	s.CohortRecords[name]++
}

// Merge folds another shard's stats in. Call in shard-index order so merged
// results are independent of worker scheduling.
func (s *ShardStats) Merge(o ShardStats) {
	s.Records += o.Records
	s.Households += o.Households
	s.Devices += o.Devices
	s.SyncEvents += o.SyncEvents
	if o.BackgroundByDay != nil {
		s.BackgroundByDay = o.BackgroundByDay
		s.YouTubeByDay = o.YouTubeByDay
	}
	if o.CohortDevices != nil && s.CohortDevices == nil {
		s.CohortDevices = make(map[string]int)
	}
	for k, v := range o.CohortDevices {
		s.CohortDevices[k] += v
	}
	if o.CohortRecords != nil && s.CohortRecords == nil {
		s.CohortRecords = make(map[string]int)
	}
	for k, v := range o.CohortRecords {
		s.CohortRecords[k] += v
	}
}

// ShardSeed derives the deterministic seed of one shard from the campaign
// seed. Shard 0 keeps the root seed unchanged so a 1-shard run reproduces
// the legacy sequential Generate stream bit for bit.
func ShardSeed(seed int64, shard int) int64 {
	if shard == 0 {
		return seed
	}
	var buf [32]byte
	label := append(buf[:0], "workload/shard/"...)
	label = strconv.AppendInt(label, int64(shard), 10)
	return simrand.DeriveSeed(seed, string(label))
}

// ShardRange returns the half-open subscriber-index range [lo,hi) owned by
// shard of nshards over a population of total IPs. Ranges are contiguous,
// disjoint, cover [0,total), and differ in size by at most one.
func ShardRange(total, shard, nshards int) (lo, hi int) {
	base, rem := total/nshards, total%nshards
	lo = shard * base
	if shard < rem {
		lo += shard
	} else {
		lo += rem
	}
	hi = lo + base
	if shard < rem {
		hi++
	}
	return lo, hi
}

// hostStride / nsStride carve the device and namespace ID spaces into
// per-shard blocks so IDs never collide across concurrently generated
// shards. Shard 0 starts at 1, matching the legacy sequential generator.
// MaxShards bounds the shard count so the uint32 namespace blocks stay
// disjoint (1024 blocks of 4M namespaces each).
const (
	hostStride = uint64(1) << 40
	nsStride   = uint32(1) << 22
	MaxShards  = 1 << 10
)

// Generate produces the dataset for a vantage point: the legacy sequential
// entry point, now a 1-shard run of the shard-callable core.
func Generate(cfg VPConfig, seed int64) *Dataset {
	ds := &Dataset{Cfg: cfg}
	stats := GenerateShard(cfg, seed, 0, 1, func(r *traces.FlowRecord) {
		ds.Records = append(ds.Records, r)
	})
	ds.BackgroundByDay = stats.BackgroundByDay
	ds.YouTubeByDay = stats.YouTubeByDay
	ds.DropboxHouseholds = stats.Households
	ds.DropboxDevices = stats.Devices
	SortRecords(ds.Records)
	return ds
}

// SortRecords orders records by first-packet time, the probe export order.
func SortRecords(rs []*traces.FlowRecord) {
	sort.Slice(rs, func(i, j int) bool { return rs[i].FirstPacket < rs[j].FirstPacket })
}

// ShardSink is where one generating shard delivers its records. Emit is
// required. Alloc and Free are optional record-storage hooks for pooled
// generation: when set, every record the shard produces comes from Alloc
// (which must return zero-valued records), and records that die without
// being emitted — probe-outage drops and flow-fold scratch — go back
// through Free. A sink that recycles emitted records after Emit returns
// (every fleet path does: the ownership rule of the fleet package comment)
// makes shard generation allocation-free per record; sinks that retain
// emitted records must leave Alloc nil or never recycle them. Emit, Alloc
// and Free are always called from the same goroutine, in generation order.
type ShardSink struct {
	Emit  func(*traces.FlowRecord)
	Alloc func() *traces.FlowRecord
	Free  func(*traces.FlowRecord)
}

// GenerateShard generates one shard of a vantage point population,
// streaming records through emit in generation order (no global sort, no
// accumulation). The population is partitioned by ShardRange; each shard
// draws from an independent stream seeded by ShardSeed, so the output of a
// (seed, shard, nshards) triple is a pure function — identical no matter
// how many shards run concurrently. Probe-outage days are filtered at emit
// time, which keeps the surviving stream identical to the legacy
// generate-then-filter order.
func GenerateShard(cfg VPConfig, seed int64, shard, nshards int, emit func(*traces.FlowRecord)) ShardStats {
	return GenerateShardSink(cfg, seed, shard, nshards, ShardSink{Emit: emit})
}

// GenerateShardSink is GenerateShard with record-storage hooks; records
// and stats are bit-identical whether or not the hooks are set (pinned by
// TestPooledShardMatchesUnpooled).
func GenerateShardSink(cfg VPConfig, seed int64, shard, nshards int, sink ShardSink) ShardStats {
	if nshards < 1 {
		nshards = 1
	}
	if nshards > MaxShards {
		panic("workload: " + strconv.Itoa(nshards) + " shards exceeds MaxShards (" + strconv.Itoa(MaxShards) + ")")
	}
	if shard < 0 || shard >= nshards {
		panic("workload: shard " + strconv.Itoa(shard) + " out of range [0," + strconv.Itoa(nshards) + ")")
	}
	if cfg.TotalIPs > MaxSubscribers {
		panic("workload: " + strconv.Itoa(cfg.TotalIPs) + " subscribers exceeds MaxSubscribers (" + strconv.Itoa(MaxSubscribers) + ")")
	}
	var label []byte
	label = append(label, "workload/"...)
	label = append(label, cfg.Name...)
	label = append(label, '/')
	label = strconv.AppendInt(label, int64(shard), 10)
	label = append(label, '.')
	label = strconv.AppendInt(label, int64(nshards), 10)
	g := &generator{
		cfg:         cfg,
		caps:        cfg.Caps,
		plan:        cfg.Cohorts,
		rng:         simrand.New(ShardSeed(seed, shard), string(label)),
		emit:        sink.Emit,
		alloc:       sink.Alloc,
		free:        sink.Free,
		horizon:     time.Duration(cfg.Days) * 24 * time.Hour,
		nextHost:    1 + uint64(shard)*hostStride,
		nextNS:      1 + uint32(shard)*nsStride,
		storagePool: 640,
	}
	if g.alloc == nil {
		g.alloc = func() *traces.FlowRecord { return new(traces.FlowRecord) }
	}
	if g.free == nil {
		g.free = func(*traces.FlowRecord) {}
	}
	if len(cfg.OutageDays) > 0 {
		days := cfg.Days
		for _, d := range cfg.OutageDays {
			if d >= days {
				days = d + 1
			}
		}
		g.outage = make([]bool, days)
		for _, d := range cfg.OutageDays {
			g.outage[d] = true
		}
	}
	if shard == 0 {
		g.stats.BackgroundByDay = make([]float64, cfg.Days)
		g.stats.YouTubeByDay = make([]float64, cfg.Days)
		g.background()
	}
	// All shards must share one IP-plane base, or large sharded populations
	// alias client addresses across shards (two shards' 62500-subscriber
	// blocks landing on the same second octet, silently merging
	// households). The shard-local draw is kept so the 1-shard stream
	// stays bit-compatible with the legacy sequential generator;
	// multi-shard runs derive the shared base from the campaign seed.
	ipBase := g.rng.Intn(200)
	if nshards > 1 {
		ipBase = int(uint64(simrand.DeriveSeed(seed, "workload/ipbase")) % 200)
	}
	lo, hi := ShardRange(cfg.TotalIPs, shard, nshards)
	for i := lo; i < hi; i++ {
		g.subscriber(SubscriberIP(ipBase, i))
	}
	g.stats.flushTelemetry()
	return g.stats
}

// SubscriberIP maps a subscriber index to a stable 10/8 client address.
// Indices below 62500 keep the legacy 10.base.i/250.i%250 layout; above
// that, whole blocks roll into the second octet instead of silently
// wrapping the third, so a vantage point holds MaxSubscribers distinct
// addresses before 10/8 itself runs out.
func SubscriberIP(ipBase, i int) wire.IP {
	block, rem := i/62500, i%62500
	return wire.MakeIP(10, byte((ipBase+block)%256), byte(rem/250), byte(rem%250))
}

// MaxSubscribers is how many distinct addresses SubscriberIP hands out,
// 256 second octets of 250 x 250: a larger population would give two
// subscribers one address.
const MaxSubscribers = 256 * 62500

// CheckScale is the one population-size rule, derived from the address
// plan: scale > 0 and at most MaxSubscribers subscribers. Every front end
// refuses a population with its text; the generator panics past it.
func CheckScale(cfg VPConfig) error {
	if !(cfg.Scale > 0) || cfg.TotalIPs > MaxSubscribers {
		return fmt.Errorf("scale must be > 0 and give %s at most %d subscribers, the distinct 10/8 addresses (got %g)",
			cfg.Name, MaxSubscribers, cfg.Scale)
	}
	return nil
}

// isOutage reports whether a campaign day is a probe outage.
func (g *generator) isOutage(day int) bool {
	return day >= 0 && day < len(g.outage) && g.outage[day]
}

// record streams one finished flow record out of the shard, dropping
// probe-outage days (the streaming equivalent of the legacy applyOutages
// pass: the filter is per-record, so filtering at emit time preserves both
// the surviving set and its order). Dropped records go back to the sink's
// Free hook — they were never emitted.
func (g *generator) record(r *traces.FlowRecord) {
	if g.isOutage(int(r.FirstPacket / (24 * time.Hour))) {
		g.free(r)
		return
	}
	g.stats.Records++
	if c := g.cohort; c != nil {
		g.stats.addCohortRecord(c.Name)
	}
	g.emit(r)
}

// background fills the per-day non-cloud and YouTube volumes, modulated by
// week/holiday factors. DailyBackgroundGB describes the paper's full
// population, so it scales down with the simulated one to keep traffic
// shares (Fig. 3, Table 2) comparable.
func (g *generator) background() {
	scale := g.cfg.Scale
	if scale <= 0 || scale > 1 {
		scale = 1
	}
	for d := 0; d < g.cfg.Days; d++ {
		t := time.Duration(d) * 24 * time.Hour
		day := (d + campaignStartWeekday) % 7
		factor := [7]float64(g.cfg.Week)[day] * g.cfg.Holidays.At(t)
		vol := g.cfg.DailyBackgroundGB * 1e9 * scale * factor * g.rng.Uniform(0.92, 1.08)
		yt := vol * g.cfg.YouTubeShare * g.rng.Uniform(0.85, 1.15)
		if g.isOutage(d) {
			// Probe outage: the day records no volume at all.
			vol, yt = 0, 0
		}
		g.stats.BackgroundByDay[d] = vol - yt
		g.stats.YouTubeByDay[d] = yt
	}
}

// weekShifted folds the campaign start weekday into a weekly profile.
func weekShifted(w simrand.WeekdayFactor) simrand.WeekdayFactor {
	var out simrand.WeekdayFactor
	for i := 0; i < 7; i++ {
		out[i] = [7]float64(w)[(i+campaignStartWeekday)%7]
	}
	return out
}

// weekAdjusted is the configured weekly profile in campaign time.
func (g *generator) weekAdjusted() simrand.WeekdayFactor {
	return weekShifted(g.cfg.Week)
}

// subscriber generates all traffic of one IP address.
func (g *generator) subscriber(ip wire.IP) {
	access := g.cfg.Access[g.rng.Intn(len(g.cfg.Access))]
	if g.rng.Bool(g.cfg.DropboxFrac) {
		hh := g.makeDropboxHousehold(ip, access)
		g.dropboxTraffic(hh)
	}
	// Competing providers move an order of magnitude less data than
	// Dropbox despite comparable-or-higher installation counts (Fig. 2b:
	// iCloud cannot sync arbitrary files).
	if g.rng.Bool(g.cfg.ICloudFrac) {
		g.providerTraffic(ip, classify.CertICloud, 0, 2.0e6, 4)
	}
	if g.rng.Bool(g.cfg.SkyDriveFrac) {
		g.providerTraffic(ip, classify.CertSkyDrive, 0, 1.6e6, 3)
	}
	if g.rng.Bool(g.cfg.GDriveFrac) {
		g.providerTraffic(ip, classify.CertGoogleDrive, 31, 2.5e6, 3) // launch Apr 24
	}
	if g.rng.Bool(g.cfg.OtherCloudFrac) {
		certs := []string{classify.CertSugarSync, classify.CertBox, classify.CertUbuntuOne}
		g.providerTraffic(ip, certs[g.rng.Intn(len(certs))], 0, 1.0e6, 2)
	}
	// Some non-client users fetch public direct links (Sec. 6).
	if g.rng.Bool(0.02) {
		g.directLinkDownloads(ip, 2)
	}
}

// ---------- Dropbox population ----------

func (g *generator) makeDropboxHousehold(ip wire.IP, access AccessKind) *household {
	hh := &household{ip: ip, group: g.pickGroup()}
	n := g.deviceCount(hh.group)
	// Household namespace pool: the root plus shared folders; devices of
	// the same account overlap in their namespace lists (Sec. 2.3.1).
	rootNS := g.allocNS()
	poolSize := 1 + g.rng.Intn(6)
	pool := make([]uint32, poolSize)
	for i := range pool {
		pool[i] = g.allocNS()
	}
	for i := 0; i < n; i++ {
		if i == len(g.events) {
			g.events, g.sessions = append(g.events, nil), append(g.sessions, nil)
		}
		d := &device{host: g.nextHost, access: access, events: g.events[i][:0]}
		g.nextHost++
		if g.plan != nil {
			d.cohort = g.plan.Assign(d.host)
			g.setCohort(d.cohort)
			g.stats.addCohortDevice(d.cohort.Name)
		}
		d.namespaces = g.deviceNamespaces(rootNS, pool)
		// A few devices sit permanently behind connection-killing
		// equipment; most chopping is decided per session.
		d.natChopped = g.rng.Bool(g.chopFrac() / 4)
		d.sessions = g.deviceSessions(hh.group, g.sessions[i][:0])
		hh.devices = append(hh.devices, d)
	}
	if g.plan != nil {
		g.setCohort(nil)
	}
	g.stats.Households++
	g.stats.Devices += n
	return hh
}

// setCohort switches the generator's behavioral context to a device's
// cohort: the capability profile swaps to the cohort's override (restored
// to the VP baseline on nil), and the multiplier hooks below start reading
// the cohort. Never called on the legacy nil-plan path, which therefore
// stays bit-identical.
func (g *generator) setCohort(c *Cohort) {
	g.cohort = c
	if c != nil && c.Caps != nil {
		g.caps = *c.Caps
	} else {
		g.caps = g.cfg.Caps
	}
}

// chopFrac is the effective per-session notification-chopping probability:
// the VP baseline plus the current cohort's intermittent-connectivity add-on.
func (g *generator) chopFrac() float64 {
	f := g.cfg.NATChoppedFrac
	if c := g.cohort; c != nil {
		f += c.NATChopFrac
		if f > 1 {
			f = 1
		}
	}
	return f
}

func (g *generator) pickGroup() classify.UserGroup {
	m := g.cfg.Groups
	u := g.rng.Float64()
	switch {
	case u < m.Occasional:
		return classify.GroupOccasional
	case u < m.Occasional+m.UploadOnly:
		return classify.GroupUploadOnly
	case u < m.Occasional+m.UploadOnly+m.DownloadOnly:
		return classify.GroupDownloadOnly
	default:
		return classify.GroupHeavy
	}
}

// deviceCount follows Fig. 12 (≈60% single-device households; heavy users
// average >2, Table 5).
func (g *generator) deviceCount(group classify.UserGroup) int {
	if g.cfg.WorkstationLike {
		if g.rng.Bool(0.85) {
			return 1
		}
		return 2
	}
	if g.deviceCounts[0] == nil { // NewWeightedChoice draws nothing
		g.deviceCounts = [2]*simrand.WeightedChoice{
			simrand.NewWeightedChoice(g.rng, []float64{0.72, 0.18, 0.06, 0.03, 0.01}),
			simrand.NewWeightedChoice(g.rng, []float64{0.32, 0.38, 0.17, 0.08, 0.05}),
		}
	}
	w := g.deviceCounts[0]
	if group == classify.GroupHeavy {
		w = g.deviceCounts[1]
	}
	n := w.Draw() + 1
	if n == 5 {
		n += g.rng.Intn(4) // the >4 tail
	}
	return n
}

// deviceNamespaces sizes the list per Fig. 13 and draws shares from the
// household pool (plus extras for cross-household shares).
func (g *generator) deviceNamespaces(root uint32, pool []uint32) []uint32 {
	out := []uint32{root}
	if g.rng.Bool(g.cfg.P1Namespace) {
		return out
	}
	lambda := g.cfg.NamespaceLambda
	if c := g.cohort; c != nil {
		lambda *= c.namespaceLambdaMult()
	}
	n := 1 + g.rng.Poisson(lambda)
	for i := 0; i < n; i++ {
		if i < len(pool) && g.rng.Bool(0.6) {
			out = append(out, pool[i])
		} else {
			out = append(out, g.allocNS()) // share with someone elsewhere
		}
	}
	return out
}

func (g *generator) allocNS() uint32 {
	v := g.nextNS
	g.nextNS++
	return v
}

// deviceSessions appends to out the session process of one device over
// the horizon.
func (g *generator) deviceSessions(group classify.UserGroup, out []session) []session {
	c := g.cohort
	if c != nil && c.AlwaysOn {
		return append(out, session{0, g.horizon})
	}
	// A slice of devices never goes offline (the Fig. 16 tail).
	alwaysOn := 0.08
	if g.cfg.WorkstationLike {
		alwaysOn = 0.13
	}
	if group == classify.GroupOccasional {
		alwaysOn /= 2
	}
	if g.rng.Bool(alwaysOn) {
		return append(out, session{0, g.horizon})
	}
	rate := g.cfg.SessionsPerDay
	if group == classify.GroupOccasional {
		rate *= 0.45
	}
	diurnal, week := g.cfg.Diurnal, g.weekAdjusted()
	if c != nil {
		rate *= c.sessionRateMult()
		if c.Diurnal != nil {
			diurnal = *c.Diurnal
		}
		if c.Week != nil {
			week = weekShifted(*c.Week)
		}
	}
	starts := simrand.ThinnedPoissonProcess(g.starts[:0], g.rng, g.horizon, rate,
		diurnal, week, g.cfg.Holidays)
	if c != nil && len(c.Flash) > 0 {
		starts = g.flashStarts(starts, c, rate)
	}
	g.starts = starts
	for _, s := range starts {
		dur := g.sessionDuration()
		if c != nil {
			dur = time.Duration(float64(dur) * c.sessionLenMult())
		}
		end := s + dur
		if end > g.horizon {
			end = g.horizon
		}
		if len(out) > 0 && s <= out[len(out)-1].end {
			// Overlapping start while already online: extend.
			if end > out[len(out)-1].end {
				out[len(out)-1].end = end
			}
			continue
		}
		out = append(out, session{s, end})
	}
	return out
}

// flashStarts adds the extra session arrivals of a cohort's flash windows:
// a homogeneous Poisson excess of rate*(mult-1) per day, uniform inside the
// window, merged into the base process in time order.
func (g *generator) flashStarts(starts []time.Duration, c *Cohort, rate float64) []time.Duration {
	for _, fw := range c.Flash {
		lo, hi := fw.Start, fw.End
		if hi > g.horizon {
			hi = g.horizon
		}
		if hi <= lo || fw.RateMult <= 1 {
			continue
		}
		days := (hi - lo).Hours() / 24
		n := g.rng.Poisson(rate * (fw.RateMult - 1) * days)
		for i := 0; i < n; i++ {
			starts = append(starts, lo+time.Duration(g.rng.Float64()*float64(hi-lo)))
		}
	}
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	return starts
}

// sessionDuration follows the Fig. 16 mixtures.
func (g *generator) sessionDuration() time.Duration {
	if g.cfg.WorkstationLike {
		// Office routine: most sessions span the working day.
		u := g.rng.Float64()
		switch {
		case u < 0.55:
			return time.Duration(g.rng.LogNormal(ln7h, 0.35))
		case u < 0.80:
			return time.Duration(g.rng.LogNormal(ln2h, 0.8))
		default:
			return time.Duration(g.rng.LogNormal(ln15min, 1.0))
		}
	}
	u := g.rng.Float64()
	switch {
	case u < 0.45:
		return time.Duration(g.rng.LogNormal(ln35min, 1.1))
	case u < 0.85:
		return time.Duration(g.rng.LogNormal(ln2h, 0.9))
	default:
		return time.Duration(g.rng.LogNormal(ln6h, 0.7))
	}
}

// ---------- Dropbox traffic synthesis ----------

// eventRates returns (uploads, downloads) per online hour by group.
func eventRates(group classify.UserGroup) (up, down float64) {
	switch group {
	case classify.GroupOccasional:
		return 0.004, 0.004
	case classify.GroupUploadOnly:
		return 0.33, 0.002
	case classify.GroupDownloadOnly:
		return 0.002, 0.30
	default: // heavy
		return 0.38, 0.30
	}
}

func (g *generator) dropboxTraffic(hh *household) {
	// The Home 2 anomaly (Sec. 4.3.1): the first generated device streams
	// single 4 MB chunks in consecutive TCP connections for days, biasing
	// the store CDF (Fig. 7) and the upload totals (Fig. 11b).
	if g.cfg.AbnormalUploader && len(hh.devices) > 0 && hh.devices[0].host == 1 {
		dev := hh.devices[0]
		start := 5 * 24 * time.Hour
		end := 19 * 24 * time.Hour
		dev.sessions = append(dev.sessions[:0], session{start, end})
		for at := start; at < end; at += time.Duration(g.rng.Uniform(500, 900) * float64(time.Second)) {
			g.oneStorageFlow(hh, dev, at, classify.DirStore, []int{4 << 20})
			g.controlFlow(hh, at, 2, 1) // each chunk is its own transaction
		}
	}
	// Collect synchronization events per device first (uploads, downloads,
	// start-up syncs, cross-device propagation), then synthesize flows in
	// time order so consecutive batches can reuse storage connections
	// within the 60 s idle window — the flow-inflating behaviour the paper
	// observes in Sec. 4.4.2. Events accumulate on the devices themselves
	// (not a per-household map): append order is identical to the former
	// map-of-slices build, and the drain walks them in the order of their
	// sorted keys (drainOrder), so the record stream is unchanged.
	g.filesOff = 0
	for _, dev := range hh.devices {
		if g.plan != nil {
			g.setCohort(dev.cohort)
		}
		for _, s := range dev.sessions {
			g.notifyFlows(hh, dev, s)
			g.controlFlow(hh, s.start, 3, 2) // register + first list
			g.systemLogFlow(hh, s.start)
			g.sessionEvents(hh, dev, s)
		}
	}
	for _, dev := range hh.devices {
		if g.plan != nil {
			g.setCohort(dev.cohort)
		}
		evs := dev.events
		g.stats.SyncEvents += len(evs)
		g.order = g.order[:0]
		for i, ev := range evs {
			g.order = append(g.order, drainKey{ev.at, int32(i)})
		}
		sort.Sort(&g.order)
		var mergers [2]mergeState // store, retrieve
		for _, k := range g.order {
			ev := &evs[k.i]
			g.storageFlows(hh, dev, ev.at, ev.dir, ev.files, &mergers)
		}
		g.closeMerger(&mergers[0])
		g.closeMerger(&mergers[1])
	}
	for i, dev := range hh.devices {
		g.events[i], g.sessions[i] = dev.events, dev.sessions
	}
	// Web interface / direct-link / API usage rides on the household (no
	// cohort attribution — it is account-level, not device-level).
	if g.plan != nil {
		g.setCohort(nil)
	}
	if g.rng.Bool(0.25) {
		g.webInterface(hh.ip, 1+g.rng.Intn(3))
	}
	if g.rng.Bool(0.5) {
		g.directLinkDownloads(hh.ip, 1+g.rng.Intn(4))
	}
	if g.rng.Bool(0.15) {
		g.apiFlows(hh.ip, 1+g.rng.Intn(3))
	}
}

// syncEvent is one pending synchronization: a set of changed files to move
// in one direction at one instant. Each file chunks independently (a chunk
// never spans files), so multi-file events produce the multi-chunk flows
// whose sequential acknowledgments the paper measures.
type syncEvent struct {
	at    time.Duration
	dir   classify.Direction
	files []int64
}

// drainOrder orders a device's events by instant through pointer-free
// keys. sort.Sort's pdqsort permutes by Len, Less and its own swaps alone,
// so the keys come out as sorting the events would, ties included, while
// a swap moves 16 bytes instead of a 40-byte event with its write barrier.
// A stable sort would order ties differently and move the stream.
type drainOrder []drainKey

type drainKey struct {
	at time.Duration
	i  int32
}

func (o *drainOrder) Len() int           { return len(*o) }
func (o *drainOrder) Less(i, j int) bool { return (*o)[i].at < (*o)[j].at }
func (o *drainOrder) Swap(i, j int)      { (*o)[i], (*o)[j] = (*o)[j], (*o)[i] }

// filesArenaSize sizes the changed-file slab: ~1700 average events per
// slab allocation.
const filesArenaSize = 4096

// allocFiles carves an n-element list from the rolling slab (capacity
// capped so appends can never bleed into a neighbouring list); outsized
// requests get their own allocation.
func (g *generator) allocFiles(n int) []int64 {
	if g.filesOff+n > len(g.filesArena) {
		if n > filesArenaSize/4 {
			return make([]int64, n)
		}
		g.filesArena = make([]int64, filesArenaSize)
		g.filesOff = 0
	}
	out := g.filesArena[g.filesOff : g.filesOff+n : g.filesOff+n]
	g.filesOff += n
	return out
}

// eventFiles draws the changed-file set of one synchronization event: one
// or a few files, mostly small deltas (the paper's median store flow is
// ~16 kB and >40% of flows carry 2+ chunks).
func (g *generator) eventFiles() []int64 {
	n := 1 + g.rng.PoissonExp(expNeg1p4)
	out := g.allocFiles(n)
	for i := range out {
		out[i] = g.fileSize()
	}
	return out
}

// sessionEvents generates the synchronization events of one session onto
// the devices' event slices.
func (g *generator) sessionEvents(hh *household, dev *device, s session) {
	hours := (s.end - s.start).Hours()
	if hours <= 0 {
		return
	}
	upRate, downRate := eventRates(hh.group)
	if c := g.cohort; c != nil {
		m := c.editRateMult() * c.flashMult(s.start)
		upRate *= m
		downRate *= m
	}
	// First synchronization at start-up is download-dominated (Sec. 5.4)
	// and accumulates every update produced while offline, so it skews
	// larger than individual store events (Fig. 7).
	if hh.group == classify.GroupHeavy || hh.group == classify.GroupDownloadOnly {
		if g.rng.Bool(0.55) {
			files := g.files[:0]
			for i := 0; i < 1+g.rng.PoissonExp(expNeg1p6); i++ {
				files = append(files, g.eventFiles()...)
			}
			g.files = files
			list := g.allocFiles(len(files))
			copy(list, files)
			dev.events = append(dev.events, syncEvent{s.start + g.startupDelay(), classify.DirRetrieve, list})
		}
	}
	nUp := g.rng.Poisson(upRate * hours)
	for i := 0; i < nUp; i++ {
		at := s.start + time.Duration(g.rng.Float64()*float64(s.end-s.start))
		files := g.eventFiles()
		dev.events = append(dev.events, syncEvent{at, classify.DirStore, files})
		// Cross-device sync: other online devices of the household pull
		// the content from the cloud (unless LAN sync takes it).
		for _, peer := range hh.devices {
			if peer == dev || !online(peer, at) {
				continue
			}
			if g.rng.Bool(0.5) { // LAN sync handles the rest invisibly
				continue
			}
			delay := time.Duration(g.rng.Uniform(5, 90) * float64(time.Second))
			peer.events = append(peer.events, syncEvent{at + delay, classify.DirRetrieve, files})
		}
	}
	nDown := g.rng.Poisson(downRate * hours)
	for i := 0; i < nDown; i++ {
		at := s.start + time.Duration(g.rng.Float64()*float64(s.end-s.start))
		dev.events = append(dev.events, syncEvent{at, classify.DirRetrieve, g.eventFiles()})
	}
}

func (g *generator) startupDelay() time.Duration {
	return time.Duration(g.rng.Uniform(2, 20) * float64(time.Second))
}

func online(d *device, at time.Duration) bool {
	for _, s := range d.sessions {
		if at >= s.start && at < s.end {
			return true
		}
	}
	return false
}

// fileSize draws a synchronization event's byte size: mostly small deltas,
// a heavy tail of archives (Fig. 7's shape after chunking/batching). The
// two small branches are transfers of *edited* files, shrunk by delta
// encoding; when the capability profile disables it, those — and only
// those — re-transfer the whole file (the archive tail was never
// delta-encoded, so it is unaffected by the knob).
func (g *generator) fileSize() int64 {
	u := g.rng.Float64()
	var v float64
	editDelta := false
	switch {
	case u < 0.60:
		v = g.rng.LogNormal(ln9kB, 1.3) // deltas of constantly-edited files
		editDelta = true
	case u < 0.85:
		v = g.rng.LogNormal(ln120kB, 1.1) // modified documents and media
		editDelta = true
	case u < 0.97:
		v = g.rng.LogNormal(ln2MB, 1.0)
	default:
		v = g.rng.LogNormal(ln40MB, 0.8)
	}
	if editDelta && !g.caps.DeltaEncoding {
		v *= capability.NoDeltaInflate
	}
	if c := g.cohort; c != nil {
		v *= c.fileSizeMult()
	}
	if v < 100 {
		v = 100
	}
	if v > 2e9 {
		v = 2e9
	}
	return int64(v)
}

// mergeState tracks a storage connection left open after its last batch:
// follow-on batches within the 60 s idle window reuse it, folding into the
// same flow record. The record is emitted only when the connection closes,
// so nothing downstream ever observes a flow that is still being folded —
// the invariant the streaming engine depends on. A nil rec means no
// connection is open.
type mergeState struct {
	rec *traces.FlowRecord
	end time.Duration // end of the last data transfer
}

// closeMerger finalizes an open storage flow with the server's idle close
// (alert + FIN answered by a client RST, Fig. 19) and emits it.
func (g *generator) closeMerger(m *mergeState) {
	if m.rec == nil {
		return
	}
	r := m.rec
	r.BytesDown += int64(wire.RecordHeaderLen + 2)
	r.PSHDown++
	r.PktsDown++
	r.ServerClosed = true
	r.SawRST = true
	r.LastPayloadDown = m.end + 60*time.Second
	if r.LastPayloadDown > r.LastPacket {
		r.LastPacket = r.LastPayloadDown
	}
	m.rec = nil
	g.record(r)
}

// foldFlow appends a follow-on batch (synthesized as its own flow) onto an
// open connection's record, removing the duplicate TLS handshake.
func foldFlow(dst, src *traces.FlowRecord) {
	dst.BytesUp += src.BytesUp - tlssim.ClientHandshakeBytes
	dst.BytesDown += src.BytesDown - tlssim.ServerHandshakeBytes
	dst.PSHUp += src.PSHUp - 2
	dst.PSHDown += src.PSHDown - 2
	dst.PktsUp += src.PktsUp - 2
	dst.PktsDown += src.PktsDown - 2
	dst.RTTSamples += src.RTTSamples
	dst.LastPayloadUp = src.LastPayloadUp
	dst.LastPayloadDown = src.LastPayloadDown
	dst.LastPacket = src.LastPacket
}

// storageFlows chunks a synchronization event per the capability profile
// (chunk size limit, delta encoding, compression, dedup), splits it into
// the batches of its transfer plan (at most 100 chunks each: Sec. 2.3.2
// caps flows near 400 MB this way) and emits flows, reusing open
// connections within the idle window.
func (g *generator) storageFlows(hh *household, dev *device, at time.Duration,
	dir classify.Direction, files []int64, mergers *[2]mergeState) {

	chunkLimit := g.caps.ChunkLimit()
	// Server-side dedup (need_blocks) spares upload traffic only; the
	// download path never benefited from it, so disabling it inflates
	// store events alone — matching the packet-level client, whose Dedup
	// branch sits in the upload path.
	dedupOff := !g.caps.Dedup && dir == classify.DirStore
	wires := g.wires[:0]
	for _, size := range files {
		// The compression ratio is always drawn, so profiles that disable
		// compression keep the random stream aligned with the presets.
		ratio := g.rng.Uniform(0.55, 1.0)
		if !g.caps.Compression {
			ratio = 1.0
		}
		// The flow path needs chunk sizes only; the content-identity seed
		// is still drawn so the random stream stays aligned with the
		// ref-materializing path the packet-level client uses.
		_ = g.rng.Uint64()
		nChunks, lastSize := chunker.ChunkSpanLimit(size, chunkLimit)
		for ci := 0; ci < nChunks; ci++ {
			cs := chunkLimit
			if ci == nChunks-1 {
				cs = lastSize
			}
			w := int(float64(cs) * ratio)
			if w < 1 {
				w = 1
			}
			wires = append(wires, w)
			if dedupOff && g.rng.Bool(capability.DedupHitFrac) {
				// Without server-side dedup, the chunks need_blocks used to
				// spare the wire transfer too: re-materialize them as
				// duplicate per-chunk traffic.
				wires = append(wires, w)
			}
		}
	}
	g.wires = wires // keep the grown scratch for the next event
	slot := 0
	if dir == classify.DirRetrieve {
		slot = 1
	}
	g.ops = dropbox.PlanTransfer(g.ops[:0], g.caps, wires)
	first := 0
	for _, op := range g.ops {
		if !op.EndsBatch {
			continue
		}
		end := op.First + op.Chunks
		batch := wires[first:end]
		first = end
		m := &mergers[slot]
		reuse := m.rec != nil && at > m.end && at-m.end < 55*time.Second
		if reuse {
			src := g.synthStorage(dev, m.end+maxDur(at-m.end, time.Second), dir, batch, false)
			if src != nil {
				foldFlow(m.rec, src)
				m.end = src.FirstPacket + classify.TransferDuration(src, dir)
				g.free(src) // fold scratch: never emitted
			}
		} else {
			g.closeMerger(m)
			rec := g.synthStorage(dev, at, dir, batch, false)
			if rec != nil {
				// Stamp now, emit at close: the open connection keeps
				// folding follow-on batches into this record.
				g.stampStorage(hh, rec)
				*m = mergeState{rec: rec, end: rec.FirstPacket + classify.TransferDuration(rec, dir)}
			}
		}
		g.controlFlow(hh, at, 2, 1) // commit_batch/need_blocks + close
		if m.rec != nil {
			at = m.end + time.Duration(g.rng.Uniform(0.3, 2)*float64(time.Second))
		} else {
			at += time.Duration(g.rng.Uniform(1, 5) * float64(time.Second))
		}
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// params builds flowmodel parameters for a household path.
func (g *generator) params(access AccessKind, dir classify.Direction) flowmodel.Params {
	up, down := access.rates()
	bw := up
	if dir == classify.DirRetrieve {
		bw = down
	}
	if bw > 1.25e6 {
		bw = 1.25e6 // per-server ceiling (Sec. 4.4)
	}
	return flowmodel.Params{
		RTT:       g.rng.Jitter(g.cfg.StorageRTT, 0.04),
		Bandwidth: bw,
		IW:        g.caps.IW(), // server tuning deploys with the client (Table 4)
		// The 2012 Python client hashed/compressed slowly and loaded
		// storage front-ends added server reaction time; Fig. 10
		// attributes most long-flow duration to these (100-chunk flows
		// always exceed 30 s).
		ClientReaction: 160 * time.Millisecond,
		ServerReaction: 90 * time.Millisecond,
		Caps:           g.caps,
	}
}

// synthStorage builds a storage flow record without registering it.
func (g *generator) synthStorage(dev *device, at time.Duration, dir classify.Direction,
	wires []int, serverCloses bool) *traces.FlowRecord {
	if at >= g.horizon {
		return nil
	}
	p := g.params(dev.access, dir)
	return g.synth.SynthesizeInto(g.newRecord(), g.rng, p, flowmodel.StorageFlowSpec{
		Dir: dir, ChunkWires: wires, Start: at,
		ServerClosesIdle: serverCloses,
	})
}

// stampStorage fills a storage record's addressing and DPI labels without
// emitting it (open connections keep mutating the record until closed).
func (g *generator) stampStorage(hh *household, rec *traces.FlowRecord) {
	server := g.rng.Intn(g.storagePool)
	g.stamp(rec, hh.ip, storageServerIP(server), 443)
	rec.SNI = storageSNIs[server%len(storageSNIs)]
	if g.cfg.HasDNS {
		rec.FQDN = rec.SNI
	} else {
		rec.FQDN = ""
	}
}

// oneStorageFlow emits a standalone (non-reused) storage flow.
func (g *generator) oneStorageFlow(hh *household, dev *device, at time.Duration,
	dir classify.Direction, wires []int) {
	rec := g.synthStorage(dev, at, dir, wires, g.rng.Bool(0.85))
	if rec != nil {
		g.stampStorage(hh, rec)
		g.record(rec)
	}
}

func storageServerIP(i int) wire.IP {
	return wire.MakeIP(184, 72, byte(i/256), byte(i%256))
}

// stamp fills the addressing fields common to all synthesized records.
func (g *generator) stamp(rec *traces.FlowRecord, client, server wire.IP, port uint16) {
	rec.VP = g.cfg.Name
	rec.Client = client
	rec.Server = server
	rec.ClientPort = uint16(30000 + g.rng.Intn(30000))
	rec.ServerPort = port
	rec.SawSYN = true
}

// ---------- control / notify / log flows ----------

// controlFlow emits a short TLS exchange with the meta-data servers.
func (g *generator) controlFlow(hh *household, at time.Duration, reqs, extra int) {
	if at >= g.horizon {
		return
	}
	rtt := g.rng.Jitter(g.cfg.ControlRTT, 0.02)
	if g.cfg.ControlRTTSteps {
		rtt += time.Duration(g.rng.Intn(3)) * 3 * time.Millisecond
	}
	up := int64(tlssim.ClientHandshakeBytes)
	down := int64(tlssim.ServerHandshakeBytes)
	for i := 0; i < reqs; i++ {
		up += int64(tlssim.MessageWireSize(200 + g.rng.Intn(1200)))
		down += int64(tlssim.MessageWireSize(150 + g.rng.Intn(900)))
	}
	dur := time.Duration(2+reqs) * rtt
	rec := g.newRecord()
	rec.FirstPacket, rec.LastPacket = at, at+dur
	rec.LastPayloadUp, rec.LastPayloadDown = at+dur-rtt/2, at+dur
	rec.BytesUp, rec.BytesDown = up, down
	rec.PktsUp, rec.PktsDown = int(up/wire.MSS)+reqs+2, int(down/wire.MSS)+reqs+2
	rec.PSHUp, rec.PSHDown = 2+reqs, 2+reqs
	// Meta-data exchanges span several segments each way; the probe
	// collects a sample per acknowledged segment, comfortably past the
	// >=10 filter of Fig. 6 on multi-request connections.
	rec.MinRTT, rec.RTTSamples = rtt, 10+reqs+extra
	rec.SNI, rec.CertName = "client-lb.dropbox.com", "*.dropbox.com"
	rec.SawFIN = true
	server := g.rng.Intn(10)
	g.stamp(rec, hh.ip, wire.MakeIP(199, 47, 216, byte(server)), 443)
	if g.cfg.HasDNS {
		rec.FQDN = "client-lb.dropbox.com"
	}
	g.record(rec)
}

// oneNotifyFlow emits a single long-poll connection spanning [start, end).
func (g *generator) oneNotifyFlow(hh *household, dev *device, start, end time.Duration) {
	polls := int((end - start) / time.Minute)
	if polls < 1 {
		polls = 1
	}
	req := int64(90 + 12*len(dev.namespaces))
	rec := g.newRecord()
	rec.FirstPacket, rec.LastPacket = start, end
	rec.LastPayloadUp, rec.LastPayloadDown = end, end
	rec.BytesUp, rec.BytesDown = int64(polls)*req, int64(polls)*70
	rec.PktsUp, rec.PktsDown = polls+2, polls+2
	rec.PSHUp, rec.PSHDown = polls, polls
	rec.MinRTT, rec.RTTSamples = g.rng.Jitter(g.cfg.ControlRTT, 0.02), polls
	rec.NotifyHost, rec.NotifyNamespaces = dev.host, dev.namespaces
	rec.SawRST = true
	server := g.rng.Intn(20)
	g.stamp(rec, hh.ip, wire.MakeIP(199, 47, 217, byte(server)), 80)
	if g.cfg.HasDNS {
		rec.FQDN = notifyFQDNs[server%len(notifyFQDNs)]
	}
	g.record(rec)
}

// notifyFlows emits the long-poll connection(s) covering a session.
func (g *generator) notifyFlows(hh *household, dev *device, s session) {
	// Some sessions run behind network equipment that kills idle
	// connections within a minute; the client re-establishes immediately,
	// producing the sub-minute mass of Fig. 16. Chopping is decided per
	// session: "most of those flows are from some few devices" — but a
	// device's environment varies (Sec. 5.5).
	chopped := dev.natChopped || g.rng.Bool(g.chopFrac())
	if !chopped {
		g.oneNotifyFlow(hh, dev, s.start, s.end)
		return
	}
	for t := s.start; t < s.end; {
		life := time.Duration(g.rng.Uniform(15, 75) * float64(time.Second))
		end := t + life
		if end > s.end {
			end = s.end
		}
		g.oneNotifyFlow(hh, dev, t, end)
		t = end + time.Duration(g.rng.Uniform(0.5, 3)*float64(time.Second))
	}
}

func (g *generator) systemLogFlow(hh *household, at time.Duration) {
	if at >= g.horizon || !g.rng.Bool(0.6) {
		return
	}
	rec := g.newRecord()
	rec.FirstPacket, rec.LastPacket = at, at+2*time.Second
	rec.LastPayloadUp, rec.LastPayloadDown = at+2*time.Second, at+2*time.Second
	rec.BytesUp, rec.BytesDown = int64(294+500+g.rng.Intn(2000)), 4103+400
	rec.PktsUp, rec.PktsDown, rec.PSHUp, rec.PSHDown = 4, 5, 3, 3
	rec.SNI, rec.CertName, rec.SawFIN = "d.dropbox.com", "*.dropbox.com", true
	g.stamp(rec, hh.ip, wire.MakeIP(199, 47, 216, 12), 443)
	if g.cfg.HasDNS {
		rec.FQDN = "d.dropbox.com"
	}
	g.record(rec)
}

// ---------- web / API / other-provider flows ----------

// webInterface emits main-Web-interface browsing: parallel SSL connections
// fetching thumbnails and small files (Fig. 17).
func (g *generator) webInterface(ip wire.IP, visits int) {
	for v := 0; v < visits; v++ {
		at := g.randomInstant()
		conns := 2 + g.rng.Intn(6)
		for c := 0; c < conns; c++ {
			down := int64(4103 + int(g.rng.LogNormal(ln3kB, 1.8)))
			if g.rng.Bool(0.05) { // occasional real file download <10MB
				down = 4103 + int64(g.rng.LogNormal(ln400kB, 1.4))
			}
			up := int64(294 + 300 + g.rng.Intn(1500))
			if g.rng.Bool(0.03) { // rare upload through the Web form
				up += int64(g.rng.LogNormal(ln30kB, 1.3))
			}
			rec := g.newRecord()
			rec.FirstPacket, rec.LastPacket = at, at+4*time.Second
			rec.LastPayloadUp, rec.LastPayloadDown = at+time.Second, at+3*time.Second
			rec.BytesUp, rec.BytesDown = up, down
			rec.PktsUp, rec.PktsDown = int(up/wire.MSS)+3, int(down/wire.MSS)+3
			rec.PSHUp, rec.PSHDown = 3, 4
			rec.SNI, rec.CertName, rec.SawFIN = "dl-web.dropbox.com", "*.dropbox.com", true
			g.stamp(rec, ip, wire.MakeIP(184, 72, 3, 2), 443)
			if g.cfg.HasDNS {
				rec.FQDN = "dl-web.dropbox.com"
			}
			g.record(rec)
		}
	}
}

// directLinkDownloads emits dl.dropbox.com public-link fetches (Fig. 18):
// no SSL floor (many are plain HTTP), sizes rarely above 10 MB.
func (g *generator) directLinkDownloads(ip wire.IP, n int) {
	for i := 0; i < n; i++ {
		at := g.randomInstant()
		size := int64(g.rng.LogNormal(ln120kB, 2.0))
		if size > 200e6 {
			size = 200e6
		}
		https := g.rng.Bool(0.2)
		var port uint16 = 80
		down := size
		up := int64(250 + g.rng.Intn(400))
		cert := ""
		if https {
			port = 443
			down += 4103
			up += 294
			cert = "*.dropbox.com"
		}
		rec := g.newRecord()
		rec.FirstPacket, rec.LastPacket = at, at+8*time.Second
		rec.LastPayloadUp, rec.LastPayloadDown = at+time.Second, at+8*time.Second
		rec.BytesUp, rec.BytesDown = up, down
		rec.PktsUp, rec.PktsDown = 4, int(down/wire.MSS)+3
		rec.PSHUp, rec.PSHDown = 2, 3
		rec.CertName, rec.SawFIN = cert, true
		g.stamp(rec, ip, wire.MakeIP(184, 72, 3, 0), port)
		if g.cfg.HasDNS {
			rec.FQDN = "dl.dropbox.com"
		}
		g.record(rec)
	}
}

// apiFlows emits mobile/API traffic against api-content (up to 4% of the
// volume in home networks, Fig. 4).
func (g *generator) apiFlows(ip wire.IP, n int) {
	for i := 0; i < n; i++ {
		at := g.randomInstant()
		down := int64(4103 + int(g.rng.LogNormal(ln250kB, 1.6)))
		up := int64(294 + 500 + g.rng.Intn(2000))
		rec := g.newRecord()
		rec.FirstPacket, rec.LastPacket = at, at+5*time.Second
		rec.LastPayloadUp, rec.LastPayloadDown = at+time.Second, at+5*time.Second
		rec.BytesUp, rec.BytesDown = up, down
		rec.PktsUp, rec.PktsDown = 4, int(down/wire.MSS)+3
		rec.PSHUp, rec.PSHDown = 3, 3
		rec.SNI, rec.CertName, rec.SawFIN = "api-content.dropbox.com", "*.dropbox.com", true
		g.stamp(rec, ip, wire.MakeIP(184, 72, 3, 4), 443)
		if g.cfg.HasDNS {
			rec.FQDN = "api-content.dropbox.com"
		}
		g.record(rec)
	}
}

// providerTraffic generates a competitor's flows: activeFrom gates launch
// dates (Google Drive appears on its launch day, Fig. 2).
func (g *generator) providerTraffic(ip wire.IP, cert string, activeFrom int, dailyVol float64, flowsPerDay int) {
	for d := activeFrom; d < g.cfg.Days; d++ {
		if !g.rng.Bool(0.55) {
			continue // not every installed client is active daily
		}
		dayStart := time.Duration(d) * 24 * time.Hour
		vol := dailyVol * g.rng.Uniform(0.3, 1.7)
		n := 1 + g.rng.Intn(flowsPerDay)
		for i := 0; i < n; i++ {
			at := dayStart + g.cfg.Diurnal.SampleTimeOfDay(g.rng)
			down := int64(vol / float64(n) * g.rng.Uniform(0.5, 1.5))
			up := down / 8
			rec := g.newRecord()
			rec.FirstPacket, rec.LastPacket = at, at+20*time.Second
			rec.LastPayloadUp, rec.LastPayloadDown = at+10*time.Second, at+20*time.Second
			rec.BytesUp, rec.BytesDown = up+294, down+4103
			rec.PktsUp, rec.PktsDown = int(up/wire.MSS)+4, int(down/wire.MSS)+4
			rec.PSHUp, rec.PSHDown = 4, 4
			rec.CertName, rec.SawFIN = cert, true
			g.stamp(rec, ip, wire.MakeIP(17, 32, byte(d), byte(i)), 443)
			g.record(rec)
		}
	}
}

func (g *generator) randomInstant() time.Duration {
	d := g.rng.Intn(g.cfg.Days)
	return time.Duration(d)*24*time.Hour + g.cfg.Diurnal.SampleTimeOfDay(g.rng)
}

// DayOfRecord returns the campaign day containing a record's start.
func DayOfRecord(r *traces.FlowRecord) int {
	return int(r.FirstPacket / (24 * time.Hour))
}
