package experiments

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"insidedropbox/internal/fleet"
)

// One small set of tallies serves every renderer test in this package.
var (
	talliesOnce sync.Once
	tallies     Tallies
	talliesErr  error
)

func testTallies(t *testing.T) Tallies {
	t.Helper()
	talliesOnce.Do(func() {
		tallies, talliesErr = Fold(context.Background(), 2012, SmallScale(), fleet.Config{Shards: 1})
	})
	if talliesErr != nil {
		t.Fatal(talliesErr)
	}
	return tallies
}

// mustFold folds the four vantage points under a background context and
// fails the test on error.
func mustFold(t *testing.T, seed int64, sc ScaleConfig, fc fleet.Config) Tallies {
	t.Helper()
	ts, err := Fold(context.Background(), seed, sc, fc)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func metricIn(t *testing.T, r *Result, key string, lo, hi float64) {
	t.Helper()
	v, ok := r.Metrics[key]
	if !ok {
		t.Fatalf("%s: metric %q missing (have %v)", r.ID, key, keys(r.Metrics))
	}
	if v < lo || v > hi {
		t.Errorf("%s: metric %s = %.4g, want in [%g, %g]", r.ID, key, v, lo, hi)
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

func TestAllResultsRender(t *testing.T) {
	c := testTallies(t)
	results := All(c)
	if len(results) < 20 {
		t.Fatalf("only %d experiments", len(results))
	}
	seen := map[string]bool{}
	for _, r := range results {
		if r.Text == "" {
			t.Errorf("%s: empty text", r.ID)
		}
		if seen[r.ID] {
			t.Errorf("duplicate id %s", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestTable1(t *testing.T) {
	r := Table1()
	if !strings.Contains(r.Text, "dl-clientX") || !strings.Contains(r.Text, "Meta-data") {
		t.Fatalf("table 1 incomplete:\n%s", r.Text)
	}
	metricIn(t, r, "storage_names", 500, 600)
}

func TestTable2Volumes(t *testing.T) {
	c := testTallies(t)
	r := Table2(c)
	// Every vantage point must carry volume; home nets more than campus1.
	for _, vp := range []string{"campus1", "campus2", "home1", "home2"} {
		metricIn(t, r, "gb_"+vp, 0.5, 1e9)
	}
	if r.Metrics["gb_home1"] <= r.Metrics["gb_campus1"] {
		t.Errorf("home1 volume (%.1f GB) should exceed campus1 (%.1f GB)",
			r.Metrics["gb_home1"], r.Metrics["gb_campus1"])
	}
}

func TestTable3DropboxTraffic(t *testing.T) {
	c := testTallies(t)
	r := Table3(c)
	metricIn(t, r, "devices_total", 50, 1e7)
	metricIn(t, r, "flows_total", 1000, 1e9)
	// Every vantage point contributes flows and volume. (The paper's
	// campus2 > campus1 ordering is population-driven and holds at the
	// default scale, not at this test's tiny scale.)
	for _, vp := range []string{"campus1", "campus2", "home1", "home2"} {
		metricIn(t, r, "gb_"+vp, 0.01, 1e9)
	}
}

func TestTable5Groups(t *testing.T) {
	c := testTallies(t)
	r := Table5(c)
	metricIn(t, r, "home1_Occasional_addr", 0.12, 0.50)
	metricIn(t, r, "home1_Heavy_addr", 0.20, 0.60)
	metricIn(t, r, "home1_Upload-only_addr", 0.005, 0.20)
	metricIn(t, r, "home1_Download-only_addr", 0.10, 0.45)
	// Heavy group runs more devices and owns most sessions.
	if r.Metrics["home1_Heavy_devices"] <= r.Metrics["home1_Occasional_devices"] {
		t.Errorf("heavy households should have more devices than occasional")
	}
	if r.Metrics["home1_Heavy_sess"] <= r.Metrics["home1_Occasional_sess"] {
		t.Errorf("heavy households should own more sessions")
	}
}

func TestFigure2Popularity(t *testing.T) {
	c := testTallies(t)
	r := Figure2(c)
	if r.Metrics["vol_Dropbox"] <= r.Metrics["vol_iCloud"] {
		t.Errorf("Dropbox volume (%.2g) must dominate iCloud (%.2g)",
			r.Metrics["vol_Dropbox"], r.Metrics["vol_iCloud"])
	}
	if r.Metrics["avg_ips_iCloud"] <= r.Metrics["avg_ips_Dropbox"] {
		t.Errorf("iCloud should lead in installations")
	}
	metricIn(t, r, "gdrive_first_day", 31, 40)
}

func TestFigure3Share(t *testing.T) {
	c := testTallies(t)
	r := Figure3(c)
	metricIn(t, r, "dropbox_share", 0.01, 0.12)
	metricIn(t, r, "ratio", 0.1, 0.8) // Dropbox ≈ 1/3 of YouTube
}

func TestFigure4Breakdown(t *testing.T) {
	c := testTallies(t)
	r := Figure4(c)
	for _, vp := range []string{"campus1", "campus2", "home1", "home2"} {
		metricIn(t, r, "bytes_"+vp+"_Client (storage)", 0.5, 1.0)
		// Control flows dominate counts (>60% even before notify).
		ctrl := r.Metrics["flows_"+vp+"_Client (control)"] + r.Metrics["flows_"+vp+"_Notify (control)"]
		if ctrl < 0.5 {
			t.Errorf("%s: control+notify flow share = %.2f, want > 0.5", vp, ctrl)
		}
	}
}

func TestFigure5Servers(t *testing.T) {
	c := testTallies(t)
	r := Figure5(c)
	for _, vp := range []string{"campus1", "campus2", "home1", "home2"} {
		metricIn(t, r, "avg_servers_"+vp, 1, 640)
	}
}

func TestFigure6RTT(t *testing.T) {
	c := testTallies(t)
	r := Figure6(c)
	for _, vp := range []string{"campus1", "campus2", "home1", "home2"} {
		metricIn(t, r, "storage_median_"+vp, 80, 125)
		metricIn(t, r, "control_median_"+vp, 140, 225)
	}
	// Ordering: campus1 closest, home2 farthest (Fig. 6).
	if r.Metrics["storage_median_campus1"] >= r.Metrics["storage_median_home2"] {
		t.Errorf("campus1 storage RTT should undercut home2")
	}
}

func TestFigure7FlowSizes(t *testing.T) {
	c := testTallies(t)
	r := Figure7(c)
	metricIn(t, r, "store_le100k_home1", 0.35, 0.9)
	metricIn(t, r, "store_max_home1", 1e6, 4.5e8)
	// Retrieve flows skew larger than store flows (Sec. 4.3.1).
	if r.Metrics["retr_le100k_campus1"] >= r.Metrics["store_le100k_campus1"] {
		t.Errorf("retrieves should be larger than stores: %.2f vs %.2f",
			r.Metrics["retr_le100k_campus1"], r.Metrics["store_le100k_campus1"])
	}
	// Home 2's store CDF is biased by the abnormal uploader.
	if r.Metrics["store_le100k_home2"] >= r.Metrics["store_le100k_home1"] {
		t.Errorf("home2 store CDF should be dragged toward 4MB by the anomaly")
	}
}

func TestFigure8Chunks(t *testing.T) {
	c := testTallies(t)
	r := Figure8(c)
	metricIn(t, r, "store_le10_home1", 0.6, 1.0)
	metricIn(t, r, "store_le10_campus1", 0.6, 1.0)
}

func TestFigure11Ratios(t *testing.T) {
	c := testTallies(t)
	r := Figure11(c)
	metricIn(t, r, "dl_ul_ratio_home1", 0.9, 3.0)
	// Home 2's massive uploaders push its ratio below home 1's.
	if r.Metrics["dl_ul_ratio_home2"] >= r.Metrics["dl_ul_ratio_home1"] {
		t.Errorf("home2 ratio (%.2f) should undercut home1 (%.2f)",
			r.Metrics["dl_ul_ratio_home2"], r.Metrics["dl_ul_ratio_home1"])
	}
}

func TestFigure12Devices(t *testing.T) {
	c := testTallies(t)
	r := Figure12(c)
	metricIn(t, r, "frac1_home1", 0.40, 0.78)
	metricIn(t, r, "frac_ge2_home1", 0.2, 0.6)
}

func TestFigure13Namespaces(t *testing.T) {
	c := testTallies(t)
	r := Figure13(c)
	metricIn(t, r, "frac1_home1", 0.15, 0.45)
	metricIn(t, r, "frac1_campus1", 0.04, 0.30)
	if r.Metrics["frac_ge5_campus1"] <= r.Metrics["frac_ge5_home1"] {
		t.Errorf("campus users share more folders than home users")
	}
}

func TestFigure14DailyStartups(t *testing.T) {
	c := testTallies(t)
	r := Figure14(c)
	metricIn(t, r, "avg_frac_home1", 0.1, 0.7)
}

func TestFigure15Diurnal(t *testing.T) {
	c := testTallies(t)
	r := Figure15(c)
	// Campus 1 start-ups peak during office hours; homes in the evening.
	metricIn(t, r, "startup_peak_hour_campus1", 8, 18)
	metricIn(t, r, "startup_peak_hour_home1", 17, 23)
}

func TestFigure16Sessions(t *testing.T) {
	c := testTallies(t)
	r := Figure16(c)
	// Homes show the sub-minute NAT mass; campus1 much less.
	if r.Metrics["sub_minute_home1"] <= r.Metrics["sub_minute_campus1"] {
		t.Errorf("home1 sub-minute share (%.3f) should exceed campus1 (%.3f)",
			r.Metrics["sub_minute_home1"], r.Metrics["sub_minute_campus1"])
	}
	// Campus 1 sessions run longer.
	if r.Metrics["median_s_campus1"] <= r.Metrics["median_s_home1"] {
		t.Errorf("campus1 median session should exceed home1")
	}
}

func TestFigure17Web(t *testing.T) {
	c := testTallies(t)
	r := Figure17(c)
	metricIn(t, r, "up_le10k_home1", 0.8, 1.0)
	metricIn(t, r, "down_le10M_home1", 0.9, 1.0)
}

func TestFigure18DirectLinks(t *testing.T) {
	c := testTallies(t)
	r := Figure18(c)
	metricIn(t, r, "gt10M_home1", 0.0, 0.15)
	if strings.Contains(r.Text, "campus2") {
		t.Error("campus2 must be omitted from Fig 18 (no FQDN)")
	}
}

func TestFigure20Separation(t *testing.T) {
	c := testTallies(t)
	r := Figure20(c)
	if r.Metrics["store_flows"] == 0 || r.Metrics["retrieve_flows"] == 0 {
		t.Fatalf("both directions required: %+v", r.Metrics)
	}
}

func TestFigure21Proportions(t *testing.T) {
	c := testTallies(t)
	r := Figure21(c)
	metricIn(t, r, "store_median_home1", 300, 330)
	metricIn(t, r, "retr_median_home1", 350, 440)
}

func TestTable4Bundling(t *testing.T) {
	r, err := Table4Context(context.Background(), 77, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// Bundling raises throughput (the paper: +65% retrieve average) and
	// median flow sizes grow.
	if r.Metrics["after_avg_tp_store"] <= r.Metrics["before_avg_tp_store"] {
		t.Errorf("store avg throughput should improve: %.0f -> %.0f",
			r.Metrics["before_avg_tp_store"], r.Metrics["after_avg_tp_store"])
	}
	if r.Metrics["after_median_tp_retrieve"] <= r.Metrics["before_median_tp_retrieve"]*1.15 {
		t.Errorf("retrieve median throughput should improve substantially: %.0f -> %.0f",
			r.Metrics["before_median_tp_retrieve"], r.Metrics["after_median_tp_retrieve"])
	}
	// Flow sizes must at least not shrink (the paper saw them grow; our
	// conn-reuse model reproduces the direction weakly, see EXPERIMENTS.md).
	if r.Metrics["after_median_size_store"] < r.Metrics["before_median_size_store"]*0.8 {
		t.Errorf("median store flow size regressed: %.0f -> %.0f",
			r.Metrics["before_median_size_store"], r.Metrics["after_median_size_store"])
	}
}

func TestPacketLabsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("packet lab is slow")
	}
	store := QuickPacketLab(false)
	retr := QuickPacketLab(true)
	fig9, fig10, err := RunPacketLabs(context.Background(), store, retr)
	if err != nil {
		t.Fatal(err)
	}
	if fig9.Metrics["n_store"] < 10 || fig9.Metrics["n_retrieve"] < 10 {
		t.Fatalf("too few lab flows: %+v", fig9.Metrics)
	}
	// Throughput is low on average (the paper: 462/797 kbit/s) and bounded
	// by θ.
	metricIn(t, fig9, "avg_tp_store", 2e4, 4e6)
	metricIn(t, fig9, "above_theta_frac_store", 0, 0.35)
	// Max observed stays near the 10 Mbit/s server ceiling.
	if fig9.Metrics["max_tp_retrieve"] > 13e6 {
		t.Errorf("max retrieve throughput %.0f exceeds the server ceiling",
			fig9.Metrics["max_tp_retrieve"])
	}
	// Fig 10: many-chunk flows have a duration floor above single-chunk.
	if d1, ok := fig10.Metrics["min_dur_store_1"]; ok {
		if d50, ok := fig10.Metrics["min_dur_store_6-50"]; ok && d50 <= d1 {
			t.Errorf("6-50 chunk flows (min %.2fs) should outlast 1-chunk (min %.2fs)", d50, d1)
		}
	}
}

func TestTestbedDissection(t *testing.T) {
	tb, err := RunTestbed(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if tb.Figure1.Metrics[strings.Join([]string{"has", string(rune('0' + i))}, "_")] != 1 {
			t.Errorf("figure 1 missing protocol message %d:\n%s", i, tb.Figure1.Text)
		}
	}
	if tb.Figure19.Metrics["captured_packets"] < 50 {
		t.Fatalf("testbed captured %v packets", tb.Figure19.Metrics["captured_packets"])
	}
	if !strings.Contains(tb.Figure19.Text, "Handshake") {
		t.Errorf("fig 19 should annotate TLS handshake packets:\n%s", tb.Figure19.Text)
	}
}

// TestFleetCampaignStreaming: fleet.Summarize, run per vantage point at
// Fold's seeds (seed+1 … seed+4) with one shard, describes exactly the
// populations the tallies fold — the two folds agree.
func TestFleetCampaignStreaming(t *testing.T) {
	sc := ScaleConfig{Campus1: 0.2, Campus2: 0.04, Home1: 0.01, Home2: 0.01}
	fc := fleet.Config{Shards: 1}
	ts := mustFold(t, 5, sc, fc)
	pops := vantagePoints(5, sc)
	if len(pops) != len(ts) {
		t.Fatalf("%d vantage points, %d tallies", len(pops), len(ts))
	}
	for i, p := range pops {
		sum, stats, err := fleet.Summarize(context.Background(), p.VP, p.Seed, fc)
		if err != nil {
			t.Fatal(err)
		}
		tl := ts[i]
		if stats.Cfg.Name != tl.Cfg.Name {
			t.Fatalf("VP %d order mismatch: %s vs %s", i, stats.Cfg.Name, tl.Cfg.Name)
		}
		if sum.Flows != tl.Flows() || len(sum.Devices) != len(tl.hosts) {
			t.Errorf("%s: summary has %d flows and %d devices, tally %d and %d", tl.Cfg.Name,
				sum.Flows, len(sum.Devices), tl.Flows(), len(tl.hosts))
		}
		if !reflect.DeepEqual(stats, tl.VPStats) {
			t.Errorf("%s: ground truth differs: %+v vs %+v", tl.Cfg.Name, stats, tl.VPStats)
		}
		if len(sum.Devices) > stats.Devices {
			t.Errorf("%s: counted %d devices, ground truth %d", tl.Cfg.Name, len(sum.Devices), stats.Devices)
		}
	}
}

// sameResults fails the test unless two result sets render the same text
// and the same metrics, bit for bit.
func sameResults(t *testing.T, a, b []*Result) {
	t.Helper()
	for i := range a {
		if a[i].Text != b[i].Text || !reflect.DeepEqual(a[i].Metrics, b[i].Metrics) {
			t.Fatalf("%s differs between the two folds", a[i].ID)
		}
	}
}

// TestShardedCampaignMatchesRunCampaign: the shard count fixed, the worker
// count changes no rendered result.
func TestShardedCampaignMatchesRunCampaign(t *testing.T) {
	sc := ScaleConfig{Campus1: 0.15, Campus2: 0.03, Home1: 0.01, Home2: 0.01}
	a := mustFold(t, 7, sc, fleet.Config{Shards: 4, Workers: 1})
	b := mustFold(t, 7, sc, fleet.Config{Shards: 4, Workers: 3})
	sameResults(t, All(a), All(b))
}

func TestDeterministicCampaign(t *testing.T) {
	sc := ScaleConfig{Campus1: 0.2, Campus2: 0.04, Home1: 0.01, Home2: 0.01}
	a := mustFold(t, 5, sc, fleet.Config{Shards: 1})
	b := mustFold(t, 5, sc, fleet.Config{Shards: 1})
	sameResults(t, All(a), All(b))
}
