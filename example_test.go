package insidedropbox_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"insidedropbox"
)

// printText prints a rendered result as an Output comment can hold it:
// each line without its trailing column padding.
func printText(text string) {
	for line := range strings.Lines(text) {
		fmt.Println(strings.TrimRight(line, " \n"))
	}
}

// Run executes any selection of the registered experiments. Every table,
// figure and lab of the catalogue has a stable ID; the campaign behind a
// selection generates once and is shared, and cancelling the context
// stops it mid-shard.
func ExampleRun() {
	catalogue := insidedropbox.Experiments()
	var groups []string
	size := map[string]int{}
	for _, e := range catalogue {
		g := strings.TrimRight(e.ID, "0123456789")
		if prefix, _, ok := strings.Cut(e.ID, "/"); ok {
			g = prefix + "/*"
		}
		if size[g] == 0 {
			groups = append(groups, g)
		}
		size[g]++
	}
	fmt.Printf("registered experiments: %d\n", len(catalogue))
	for _, g := range groups {
		fmt.Printf("  %-10s %2d\n", g, size[g])
	}

	results, err := insidedropbox.Run(context.Background(),
		insidedropbox.Spec{Seed: 1, Scale: insidedropbox.SmallScale()},
		insidedropbox.WithExperiments("table3", "figure6"))
	if err != nil {
		log.Fatal(err)
	}
	printText(results[0].Text)

	// Storage and control flows end at two distinct data centres
	// (Sec. 4.2.2): Figure 6's medians, without its plots.
	fig6 := results[1]
	fmt.Println(fig6.Title)
	for _, vp := range []string{"campus1", "campus2", "home1", "home2"} {
		fmt.Printf("  %-8s median minimum RTT: storage %5.1f ms, control %5.1f ms\n",
			vp, fig6.Metrics["storage_median_"+vp], fig6.Metrics["control_median_"+vp])
	}
	// Output:
	// registered experiments: 32
	//   table       5
	//   figure     21
	//   whatif      1
	//   backend/*   3
	//   scenario/*  2
	// Table 3: Total Dropbox traffic in the datasets
	// name     flows  vol (GB)  devices
	// -------  -----  --------  -------
	// campus1  22387  39.17     91
	// campus2  23534  32.71     97
	// home1    13163  17.47     82
	// home2    14639  23.01     46
	// total    73723  112.36    316
	// Figure 6: Minimum RTT of storage and control flows
	//   campus1  median minimum RTT: storage  88.1 ms, control 155.0 ms
	//   campus2  median minimum RTT: storage  96.0 ms, control 168.0 ms
	//   home1    median minimum RTT: storage  99.9 ms, control 180.0 ms
	//   home2    median minimum RTT: storage 108.0 ms, control 203.0 ms
}

// The paper's Sec. 2.2 testbed: a real client session against the
// simulated service, seen as the decrypted protocol message sequence
// (Fig. 1) and as the packets of one store and one retrieve flow
// (Fig. 19). The session memoizes the testbed run, so both figures
// dissect the same session.
func ExampleRun_protocolDissection() {
	results, err := insidedropbox.Run(context.Background(),
		insidedropbox.Spec{Seed: 2012},
		insidedropbox.WithExperiments("figure1", "figure19"))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		printText(r.Text)
	}
	// Output:
	// time      server   message                  type
	// ----------------------------------------------------------------------
	// 622.684619ms control  MsgRegisterHost          dropbox.MsgRegisterHost
	// 676.811995ms control  MsgRegisterHost          dropbox.MsgRegisterHost
	// 843.668345ms control  MsgList                  dropbox.MsgList
	// 884.188059ms control  MsgList                  dropbox.MsgList
	// 3.112306722s control  MsgCommitBatch           dropbox.MsgCommitBatch
	// 4.17775893s storage  MsgStore                 dropbox.MsgStore
	// 21.254211629s storage  MsgStore                 dropbox.MsgStore
	// 23.457410202s storage  MsgStore                 dropbox.MsgStore
	// 24.142691115s control  MsgCloseChangeset        dropbox.MsgCloseChangeset
	// 24.351945572s control  MsgList                  dropbox.MsgList
	// 24.852455339s control  MsgList                  dropbox.MsgList
	// 25.325674979s storage  MsgRetrieve              dropbox.MsgRetrieve
	// 26.081762053s storage  MsgRetrieve              dropbox.MsgRetrieve
	// 43.239787742s storage  MsgRetrieve              dropbox.MsgRetrieve
	// (a) store flow
	// time        dir  flags        len   note
	// ------------------------------------------------------------
	// 3.198077748s ->   SYN          0     (ack)
	// 3.288420438s <-   SYN|ACK      0     (ack)
	// 3.288826838s ->   ACK          0     (ack)
	// 3.288841158s ->   ACK|PSH      139   Handshake
	// 3.380437122s <-   ACK          1460  Handshake
	// 3.381616907s <-   ACK          1460
	// 3.382140107s ->   ACK          0     (ack)
	// 3.382596524s <-   ACK|PSH      1111
	// 3.383104204s ->   ACK|PSH      155   ChangeCipherSpec
	// 3.419243454s <-   ACK          0     (ack)
	// 3.423091804s ->   ACK          0     (ack)
	// 3.473638141s <-   ACK|PSH      72    ChangeCipherSpec
	// 3.474167101s ->   ACK          1460  ApplicationData
	// 3.474287101s ->   ACK          1460
	// 3.474407101s ->   ACK          1460
	// 3.474433901s ->   ACK          295
	// 3.513644259s <-   ACK          0     (ack)
	// 3.514050301s ->   ACK          0     (ack)
	// 3.566950379s <-   ACK          0     (ack)
	// 3.567473579s ->   ACK          1460
	// 3.567593579s ->   ACK          1460
	// 3.567713579s ->   ACK          1460
	// 3.567833579s ->   ACK          1460
	// 3.568374949s <-   ACK          0     (ack)
	// 3.568898149s ->   ACK          1460
	// 3.569018149s ->   ACK          1460
	// 3.569068549s ->   ACK          590
	// 3.660210661s <-   ACK          0     (ack)
	// ... (remaining packets elided)
	//
	// (b) retrieve flow
	// time        dir  flags        len   note
	// ------------------------------------------------------------
	// 24.9386622s ->   SYN          0     (ack)
	// 25.028995916s <-   SYN|ACK      0     (ack)
	// 25.029402316s ->   ACK          0     (ack)
	// 25.029416636s ->   ACK|PSH      139   Handshake
	// 25.121085881s <-   ACK          1460  Handshake
	// 25.122266342s <-   ACK          1460
	// 25.122789542s ->   ACK          0     (ack)
	// 25.123179999s <-   ACK|PSH      1111
	// 25.123687679s ->   ACK|PSH      155   ChangeCipherSpec
	// 25.159925547s <-   ACK          0     (ack)
	// 25.163675279s ->   ACK          0     (ack)
	// 25.214215495s <-   ACK|PSH      72    ChangeCipherSpec
	// 25.214642855s ->   ACK|PSH      190   ApplicationData
	// 25.214661255s ->   ACK|PSH      190
	// 25.254114197s <-   ACK          0     (ack)
	// 25.254627655s ->   ACK          0     (ack)
	// 25.305349467s <-   ACK          0     (ack)
	// 25.372063044s <-   ACK          1460  ApplicationData
	// 25.373187372s <-   ACK          1460
	// 25.373710572s ->   ACK          0     (ack)
	// 25.374398739s <-   ACK          1460
	// 25.375613569s <-   ACK          1460
	// 25.376136769s ->   ACK          0     (ack)
	// 25.376864131s <-   ACK          1460
	// 25.377791331s <-   ACK          1184
	// 25.378292451s ->   ACK          0     (ack)
	// 25.465285841s <-   ACK          1460
	// 25.466449083s <-   ACK          1460
	// ... (remaining packets elided)
}

// The home-network workload characterization as one selection sharing a
// single generated campaign: the four user groups of Table 5, the
// per-household volumes of Fig. 11 and the device counts of Fig. 12.
func ExampleRun_userBehavior() {
	results, err := insidedropbox.Run(context.Background(),
		insidedropbox.Spec{Seed: 3, Scale: insidedropbox.SmallScale()},
		insidedropbox.WithExperiments("table5", "figure11", "figure12"))
	if err != nil {
		log.Fatal(err)
	}
	table5, fig11, fig12 := results[0], results[1], results[2]
	printText(table5.Text)

	// Fig. 11's scatter plots, reduced to the ratio they show.
	fmt.Println(fig11.Title)
	for _, vp := range []string{"home1", "home2"} {
		fmt.Printf("  %s download/upload ratio = %.2f\n", vp, fig11.Metrics["dl_ul_ratio_"+vp])
	}
	fmt.Println("  (paper: home1 1.4, home2 0.9)")
	printText(fig12.Text)
	// Output:
	// Table 5: User groups in Home 1 and Home 2 — home1
	// group          addr frac  sess frac  retr (GB)  store (GB)  avg days  avg devices
	// -------------  ---------  ---------  ---------  ----------  --------  -----------
	// Occasional     0.33       0.20       0.00       0.00        14.93     1.87
	// Upload-only    0.11       0.10       0.00       0.46        21.40     1.60
	// Download-only  0.22       0.20       4.07       0.00        24.00     1.40
	// Heavy          0.35       0.51       9.68       7.47        31.56     2.38
	// Table 5: User groups in Home 1 and Home 2 — home2
	// group          addr frac  sess frac  retr (GB)  store (GB)  avg days  avg devices
	// -------------  ---------  ---------  ---------  ----------  --------  -----------
	// Occasional     0.09       0.03       0.00       0.00        10.00     1.00
	// Upload-only    0.09       0.05       0.00       0.15        19.00     1.00
	// Download-only  0.41       0.18       3.12       0.00        23.22     1.00
	// Heavy          0.41       0.74       6.57       10.57       34.22     3.00
	// Figure 11: Data volume stored and retrieved per household
	//   home1 download/upload ratio = 1.74
	//   home2 download/upload ratio = 0.90
	//   (paper: home1 1.4, home2 0.9)
	// Figure 12: Devices per household (Dropbox client)
	// devices  home1  home2
	// -------  -----  -----
	// 1        0.52   0.64
	// 2        0.22   0.14
	// 3        0.13   0.14
	// 4        0.11   0.05
	// >4       0.02   0.05
	//
	// ≈60% of households run a single device; ≈30% have more than one
	// linked device (Sec. 5.2).
}

// Table 4: the performance effect of the Dropbox 1.4.0 chunk-bundling
// deployment that the paper measured between its Mar/Apr and Jun/Jul
// Campus 1 datasets. The improvements recompute from the Result's
// metrics alone.
func ExampleRun_bundling() {
	results, err := insidedropbox.Run(context.Background(),
		insidedropbox.Spec{Seed: 7, Scale: insidedropbox.DefaultScale()},
		insidedropbox.WithExperiments("table4"))
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	printText(r.Text)

	imp := func(metric string) float64 {
		return 100 * (r.Metrics["after_"+metric]/r.Metrics["before_"+metric] - 1)
	}
	fmt.Println("Improvements from bundling (client 1.4.0 + server IW tuning):")
	fmt.Printf("  store   median throughput: %+.0f%%\n", imp("median_tp_store"))
	fmt.Printf("  retrieve median throughput: %+.0f%%\n", imp("median_tp_retrieve"))
	fmt.Printf("  store   average throughput: %+.0f%%\n", imp("avg_tp_store"))
	fmt.Printf("  retrieve average throughput: %+.0f%% (paper: ≈ +65%%)\n", imp("avg_tp_retrieve"))
	// Output:
	// Table 4: Campus 1 before and after the bundling deployment
	// metric                        Mar/Apr median  Mar/Apr avg  Jun/Jul median  Jun/Jul avg
	// ----------------------------  --------------  -----------  --------------  -----------
	// flow size store (kB)          132.70          3900         138.08          3975
	// throughput store (kbit/s)     805.72          2308         1553            3041
	// flow size retrieve (kB)       171.84          4433         176.88          4824
	// throughput retrieve (kbit/s)  831.02          2296         1562            3011
	//
	// retrieve avg throughput improvement: 31% (paper: ≈65%)
	// Improvements from bundling (client 1.4.0 + server IW tuning):
	//   store   median throughput: +93%
	//   retrieve median throughput: +88%
	//   store   average throughput: +32%
	//   retrieve average throughput: +31% (paper: ≈ +65%)
}

// The what-if lab replays one vantage-point population under several
// client capability profiles: the paper's Sec. 6 bundling analysis
// generalized to capabilities Dropbox never shipped (no deduplication,
// no delta encoding, 16 MB chunks, a fully pipelined storage protocol).
// Configuring profiles opts the lab into the run; the first profile is
// the baseline of the delta table. The two Dropbox presets reproduce the
// historical clients bit for bit.
//
// Profiles that change operation structure resample the heavy-tailed
// file sizes (EXPERIMENTS.md, determinism contract point 8), so volume
// deltas at this small scale carry the sampling noise of a few tail
// files; a larger population (its scale, the one size knob) tightens
// them.
func ExampleWithProfiles() {
	profiles := insidedropbox.CapabilityPresets()

	// The lab generates only Campus 1, but every vantage point's fraction
	// must be > 0. WithShards(4) spreads each profile's replay across four
	// deterministic population shards.
	results, err := insidedropbox.Run(context.Background(),
		insidedropbox.Spec{Seed: 2012},
		insidedropbox.WithScale(insidedropbox.ScaleConfig{Campus1: 0.15, Campus2: 0.03, Home1: 0.01, Home2: 0.01}),
		insidedropbox.WithExperiments("whatif"),
		insidedropbox.WithProfiles(profiles...),
		insidedropbox.WithShards(4))
	if err != nil {
		log.Fatal(err)
	}
	r := results[0]
	printText(r.Text)

	// The metrics carry every absolute value keyed by profile name, so the
	// deltas recompute from the Result alone.
	base := profiles[0].Name
	vol := func(p string) float64 { return r.Metrics["store_gb_"+p] + r.Metrics["retrieve_gb_"+p] }
	fmt.Println("Reading the table:")
	fmt.Printf("  baseline %s moved %.2f GB of storage traffic in %.0f flows\n",
		base, vol(base), r.Metrics["storage_flows_"+base])
	for _, p := range profiles[1:] {
		name := p.Name
		fmt.Printf("  %-16s volume %+6.1f%%  ops %+6.1f%%  store latency %+6.1f%%\n",
			name,
			100*(vol(name)/vol(base)-1),
			100*(r.Metrics["ops_"+name]/r.Metrics["ops_"+base]-1),
			100*(r.Metrics["store_med_ms_"+name]/r.Metrics["store_med_ms_"+base]-1))
	}
	// Output:
	// What-if: campus1 under 6 capability profiles (baseline dropbox-1.2.52, 4 shards, seed 2012)
	// profile          store GB  retr GB  flows  ops    store med ms  retr med ms
	// ---------------  --------  -------  -----  -----  ------------  -----------
	// dropbox-1.2.52   5.92      7.74     3332   11965  1343          1712
	// dropbox-1.4.0    2.20      8.43     2433   5612   681.80        890.77
	// no-dedup         4.06      6.64     2600   5806   731.38        894.64
	// no-delta         6.12      9.70     3509   8015   914.97        1201
	// big-chunks-16mb  4.98      10.71    3654   4689   725.66        898.91
	// full-pipeline    5.67      8.84     3339   7650   679.95        898.18
	// Deltas versus baseline dropbox-1.2.52
	// profile          Δ volume  Δ flows  Δ ops   Δ store lat  Δ retr lat
	// ---------------  --------  -------  ------  -----------  ----------
	// dropbox-1.4.0    -22.3%    -27.0%   -53.1%  -49.2%       -48.0%
	// no-dedup         -21.7%    -22.0%   -51.5%  -45.5%       -47.7%
	// no-delta         +15.8%    +5.3%    -33.0%  -31.9%       -29.8%
	// big-chunks-16mb  +14.8%    +9.7%    -60.8%  -46.0%       -47.5%
	// full-pipeline    +6.2%     +0.2%    -36.1%  -49.4%       -47.5%
	//
	// Reproducibility keys:
	//   dropbox-1.2.52{chunk=4194304 bundle=false/4194304 dedup=true delta=true compress=true pipeline=false iw=2}
	//   dropbox-1.4.0{chunk=4194304 bundle=true/4194304 dedup=true delta=true compress=true pipeline=false iw=3}
	//   no-dedup{chunk=4194304 bundle=true/4194304 dedup=false delta=true compress=true pipeline=false iw=3}
	//   no-delta{chunk=4194304 bundle=true/4194304 dedup=true delta=false compress=true pipeline=false iw=3}
	//   big-chunks-16mb{chunk=16777216 bundle=true/16777216 dedup=true delta=true compress=true pipeline=false iw=3}
	//   full-pipeline{chunk=4194304 bundle=true/4194304 dedup=true delta=true compress=true pipeline=true iw=3}
	// Reading the table:
	//   baseline dropbox-1.2.52 moved 13.67 GB of storage traffic in 3332 flows
	//   dropbox-1.4.0    volume  -22.3%  ops  -53.1%  store latency  -49.2%
	//   no-dedup         volume  -21.7%  ops  -51.5%  store latency  -45.5%
	//   no-delta         volume  +15.8%  ops  -33.0%  store latency  -31.9%
	//   big-chunks-16mb  volume  +14.8%  ops  -60.8%  store latency  -46.0%
	//   full-pipeline    volume   +6.2%  ops  -36.1%  store latency  -49.4%
}
