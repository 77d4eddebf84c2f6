package workload

import (
	"math"
	"reflect"
	"testing"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/traces"
)

// shortCfg trims a vantage point to a fast test-sized campaign.
func shortCfg(cfg VPConfig) VPConfig {
	cfg.Days = 5
	return cfg
}

// TestVantagePointsCarryTheirPreset: every vantage point is built with the
// client the paper observed there, as a named preset — 1.2.52 with server
// IW 2 for the Mar/Apr datasets, 1.4.0 with IW 3 for Campus 1's Jun/Jul
// one (Table 4). The golden stream hashes pin what each generates.
func TestVantagePointsCarryTheirPreset(t *testing.T) {
	type client struct {
		preset capability.Profile
		iw     int
	}
	want := map[string]client{
		"campus1":        {capability.DropboxV1252(), 2},
		"campus1-junjul": {capability.DropboxV140(), 3},
		"campus2":        {capability.DropboxV1252(), 2},
		"home1":          {capability.DropboxV1252(), 2},
		"home2":          {capability.DropboxV1252(), 2},
	}
	for _, vp := range VantagePoints() {
		t.Run(vp, func(t *testing.T) {
			cfg, ok := ByName(vp, 0.1)
			w, listed := want[vp]
			if !ok || !listed {
				t.Fatalf("ByName(%q) = %v, row listed %v", vp, ok, listed)
			}
			if cfg.Caps != w.preset || cfg.Caps.IW() != w.iw {
				t.Fatalf("%s carries %s, want %s", vp, cfg.Caps.Key(), w.preset.Key())
			}
		})
	}
}

// TestHypotheticalProfilesChangeTraffic sanity-checks that the what-if
// knobs actually reach the wire: disabling dedup or delta encoding must
// move more storage bytes than the 1.4.0 baseline on the same seed.
func TestHypotheticalProfilesChangeTraffic(t *testing.T) {
	base := shortCfg(Campus1JunJul(0.25))
	storeVolume := func(caps capability.Profile) float64 {
		cfg := base
		cfg.Caps = caps
		var total float64
		GenerateShard(cfg, 77, 0, 1, func(r *traces.FlowRecord) {
			total += float64(r.BytesUp)
		})
		return total
	}
	baseline := storeVolume(capability.DropboxV140())
	noDedup := storeVolume(capability.NoDedup())
	noDelta := storeVolume(capability.NoDelta())
	if noDedup <= baseline {
		t.Fatalf("no-dedup upload bytes %.3g <= baseline %.3g", noDedup, baseline)
	}
	// Only the edited-file mass inflates without delta encoding, and
	// profile streams resample the heavy tail, so assert direction rather
	// than a magnitude the tail noise could dominate.
	if noDelta <= baseline {
		t.Fatalf("no-delta upload bytes %.3g <= baseline %.3g", noDelta, baseline)
	}
}

// TestShardsShareIPBase pins the cross-shard address plane: every shard
// of a run must draw subscriber IPs from the same 10.X base, or large
// populations alias client addresses across shards. (Below 62500
// subscribers the second octet is exactly the shared base.)
func TestShardsShareIPBase(t *testing.T) {
	cfg := Campus1(0.2)
	cfg.Days = 2
	bases := map[byte]bool{}
	for sh := 0; sh < 3; sh++ {
		GenerateShard(cfg, 4, sh, 3, func(r *traces.FlowRecord) {
			ip := uint32(r.Client)
			if byte(ip>>24) == 10 {
				bases[byte(ip>>16)] = true
			}
		})
	}
	if len(bases) != 1 {
		t.Fatalf("shards drew %d distinct IP bases (%v), want 1 shared base", len(bases), bases)
	}
}

// TestCheckScaleCeiling pins the population-size rule to the address
// plan: every vantage point resolves at its largest admitted scale, one
// subscriber more is refused, so are scales that are not > 0 or would
// overflow int, and the generator panics past MaxSubscribers.
func TestCheckScaleCeiling(t *testing.T) {
	for _, name := range VantagePoints() {
		unit, _ := ByName(name, 1)
		top, _ := ByName(name, float64(MaxSubscribers)/float64(unit.TotalIPs))
		if err := CheckScale(top); err != nil || top.TotalIPs > MaxSubscribers || top.TotalIPs < MaxSubscribers-1 {
			t.Errorf("%s at its largest scale %g: %d subscribers, %v", name, top.Scale, top.TotalIPs, err)
		}
		over, _ := ByName(name, float64(MaxSubscribers+2)/float64(unit.TotalIPs))
		if err := CheckScale(over); err == nil {
			t.Errorf("%s at scale %g (%d subscribers) admitted", name, over.Scale, over.TotalIPs)
		}
	}
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), 1e300} {
		if err := CheckScale(Home1(scale)); err == nil {
			t.Errorf("scale %g admitted", scale)
		}
	}
	want := "scale must be > 0 and give home1 at most 16000000 subscribers, the distinct 10/8 addresses (got 900)"
	if err := CheckScale(Home1(900)); err == nil || err.Error() != want {
		t.Errorf("Home1(900): %v, want %q", err, want)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("GenerateShard accepted a population past MaxSubscribers")
		}
	}()
	cfg := Campus1(1)
	cfg.TotalIPs = MaxSubscribers + 1
	GenerateShard(cfg, 1, 0, 1, func(*traces.FlowRecord) {})
}

// TestProfileDeterminism pins the contract extension: the same (seed,
// population, profile) triple regenerates identical records even for
// profiles whose extra branches draw from the random stream.
func TestProfileDeterminism(t *testing.T) {
	cfg := shortCfg(Campus1(0.1))
	cfg.Caps = capability.NoDedup()
	a := Generate(cfg, 9)
	b := Generate(cfg, 9)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	for i := range a.Records {
		if !reflect.DeepEqual(*a.Records[i], *b.Records[i]) {
			t.Fatalf("record %d not reproducible", i)
		}
	}
}
