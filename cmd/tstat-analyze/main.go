// Command tstat-analyze reads a flow-record trace (as produced by dropsim
// or SaveTraces) and prints the paper's core characterizations: service
// breakdown, store/retrieve tagging, flow-size and RTT distributions, and
// user groups — the offline analysis pass of the study. Any export format
// (csv, binary, binary-flate) is read, picked by its first bytes, with the
// same output for the same records. The readers are strict: a malformed
// row or frame ends the run with the reader's error (a CSV one names row
// and column) on stderr and exit status 1. On an anonymized export
// (dropsim's default) every client address is hidden, so the two
// per-address tables are skipped.
//
// Usage:
//
//	tstat-analyze FILE
package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: tstat-analyze FILE (csv, binary or binary-flate)")
		os.Exit(2)
	}
	f, err := os.Open(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()

	r, err := traces.Open(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var recs []*traces.FlowRecord
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		recs = append(recs, rec)
	}
	fmt.Printf("%d flow records\n\n", len(recs))

	// Provider breakdown.
	provBytes := map[string]float64{}
	provFlows := map[string]int{}
	for _, rec := range recs {
		p := classify.ProviderOf(rec).String()
		provBytes[p] += float64(rec.BytesUp + rec.BytesDown)
		provFlows[p]++
	}
	tb := analysis.NewTable("Traffic by provider", "provider", "flows", "volume")
	for _, k := range analysis.SortedKeys(provBytes) {
		tb.AddRow(k, provFlows[k], analysis.HumanBytes(provBytes[k]))
	}
	fmt.Println(tb.String())

	// Dropbox service breakdown + storage analysis.
	var storeSizes, retrSizes, rtts []float64
	svcFlows := map[string]int{}
	store := map[wire.IP]int64{}
	retr := map[wire.IP]int64{}
	clients := map[wire.IP]bool{}
	for _, rec := range recs {
		if classify.ProviderOf(rec) != classify.ProvDropbox {
			continue
		}
		svc := classify.DropboxService(rec)
		svcFlows[svc.String()]++
		if rec.NotifyHost != 0 {
			clients[rec.Client] = true
		}
		if svc.String() == "Client (storage)" {
			switch classify.TagStorage(rec) {
			case classify.DirStore:
				storeSizes = append(storeSizes, float64(rec.BytesUp))
				store[rec.Client] += classify.Payload(rec, classify.DirStore)
			case classify.DirRetrieve:
				retrSizes = append(retrSizes, float64(rec.BytesDown))
				retr[rec.Client] += classify.Payload(rec, classify.DirRetrieve)
			}
			if rec.RTTSamples >= 10 && rec.MinRTT > 0 {
				rtts = append(rtts, float64(rec.MinRTT)/float64(time.Millisecond))
			}
		}
	}
	tb2 := analysis.NewTable("Dropbox flows by service", "service", "flows")
	for _, k := range analysis.SortedKeys(svcFlows) {
		tb2.AddRow(k, svcFlows[k])
	}
	fmt.Println(tb2.String())

	fmt.Println(analysis.QuantileSummary("store flow bytes", storeSizes))
	fmt.Println(analysis.QuantileSummary("retrieve flow bytes", retrSizes))
	fmt.Println(analysis.QuantileSummary("storage min RTT (ms)", rtts))
	fmt.Println()

	if r.Anonymized() {
		fmt.Println("client addresses are anonymized: per-household tables (user groups, devices per household) skipped")
		return
	}

	// User groups (Table 5 heuristics).
	groups := map[string]int{}
	for ip := range clients {
		groups[classify.GroupOf(store[ip], retr[ip]).String()]++
	}
	tb3 := analysis.NewTable("Households by user group", "group", "count")
	for _, k := range analysis.SortedKeys(groups) {
		tb3.AddRow(k, groups[k])
	}
	fmt.Println(tb3.String())

	// Devices per household.
	devs := classify.DevicesPerIP(recs)
	cnt := analysis.NewCounter()
	for _, n := range devs {
		cnt.Add(n)
	}
	if cnt.Total() > 0 {
		fmt.Printf("households with 1 device: %.0f%%; with >1: %.0f%%\n",
			100*cnt.Fraction(1), 100*cnt.FractionAtLeast(2))
	}
}
