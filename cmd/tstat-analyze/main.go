// Command tstat-analyze reads a flow-record trace (as produced by dropsim
// or SaveTraces) and prints the paper's core characterizations: service
// breakdown, store/retrieve tagging, flow-size and RTT distributions, and
// user groups — the offline analysis pass of the study. It folds the
// records into the experiments.Tally the paper's tables render from,
// keeping only the samples its quantiles need. Any export format (csv,
// binary, binary-flate) is read, picked by its first bytes, with the same
// output for the same records. The readers are strict: a malformed row or
// frame ends the run with the reader's error (a CSV one names row and
// column) on stderr and exit status 1. On an anonymized export (dropsim's
// default) every client address is hidden, so the two per-address tables
// are skipped.
//
// Usage:
//
//	tstat-analyze FILE
package main

import (
	"fmt"
	"io"
	"os"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/experiments"
	"insidedropbox/internal/traces"
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
	// The fold the paper's tables read, over the file's records; no per-day
	// series, since a trace file does not say how long its capture ran.
	t := experiments.NewTally(0)
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t.Consume(rec)
	}
	t.FinishShard()
	fmt.Printf("%d flow records\n\n", t.Flows())

	tb := analysis.NewTable("Traffic by provider", "provider", "flows", "volume")
	for p, v := range t.Providers {
		if v.Flows > 0 {
			tb.AddRow(classify.Provider(p).String(), v.Flows, analysis.HumanBytes(float64(v.Bytes)))
		}
	}
	tb.SortRows()
	fmt.Println(tb.String())

	tb2 := analysis.NewTable("Dropbox flows by service", "service", "flows")
	for svc, v := range t.Services {
		if v.Flows > 0 {
			tb2.AddRow(dnssim.Service(svc).String(), v.Flows)
		}
	}
	tb2.SortRows()
	fmt.Println(tb2.String())

	storeSizes, retrSizes := t.StorageSizes()
	fmt.Println(analysis.QuantileSummary("store flow bytes", storeSizes))
	fmt.Println(analysis.QuantileSummary("retrieve flow bytes", retrSizes))
	fmt.Println(analysis.QuantileSummary("storage min RTT (ms)", t.StorageRTT()))
	fmt.Println()

	if r.Anonymized() {
		fmt.Println("client addresses are anonymized: per-household tables (user groups, devices per household) skipped")
		return
	}

	// User groups (Table 5 heuristics) and devices per household (Fig. 12).
	store, retr := t.HouseholdVolumes()
	groups := map[classify.UserGroup]int{}
	cnt := analysis.NewCounter()
	for ip, n := range t.DevicesPerHousehold() {
		groups[classify.GroupOf(store[ip], retr[ip])]++
		cnt.Add(n)
	}
	tb3 := analysis.NewTable("Households by user group", "group", "count")
	for g, n := range groups {
		tb3.AddRow(g.String(), n)
	}
	tb3.SortRows()
	fmt.Println(tb3.String())
	if cnt.Total() > 0 {
		fmt.Printf("households with 1 device: %.0f%%; with >1: %.0f%%\n",
			100*cnt.Fraction(1), 100*cnt.FractionAtLeast(2))
	}
}
