// Package experiments contains one driver per table and figure of the
// paper, plus the campaign engines that feed them. Each driver consumes a
// Campaign (the four vantage-point datasets) or runs a dedicated
// packet-level lab, and produces a Result holding the rendered text
// (tables / ASCII figures) plus named metrics that the benchmark harness
// and EXPERIMENTS.md assertions consume.
//
// Three campaign engines coexist:
//
//   - NewCampaign materializes the four vantage-point datasets (through
//     the sharded fleet engine; 1 shard per VP reproduces the historical
//     sequential generator bit for bit);
//   - RunFleet streams populations too large to materialize into
//     bounded-memory fleet.Summary aggregates;
//   - WhatIfConfig.Run replays one population under several client
//     capability profiles (internal/capability) and tabulates storage
//     volume, flow, operation and sync-latency deltas against a baseline
//     profile — the generalization of the paper's Sec. 6 bundling analysis.
//
// See EXPERIMENTS.md at the repository root for the full catalogue, the
// determinism contract, and how each driver maps to the paper.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// Result is one regenerated table or figure.
type Result struct {
	ID      string // "table2", "figure9", ...
	Title   string
	Text    string
	Metrics map[string]float64

	// Meta is ordered provenance metadata (seed, scale, shards, ...)
	// attached by the Run orchestration. Renderers honor insertion order;
	// legacy drivers leave it nil, keeping their output byte-identical.
	Meta []MetaEntry
}

// MetaEntry is one ordered provenance key/value pair on a Result.
type MetaEntry struct {
	Key, Value string
}

// AddMeta appends one provenance entry, preserving insertion order.
func (r *Result) AddMeta(key, value string) {
	r.Meta = append(r.Meta, MetaEntry{Key: key, Value: value})
}

func newResult(id, title string) *Result {
	return &Result{ID: id, Title: title, Metrics: make(map[string]float64)}
}

func (r *Result) addText(s string) {
	if r.Text != "" && !strings.HasSuffix(r.Text, "\n") {
		r.Text += "\n"
	}
	r.Text += s
}

// Campaign bundles the four vantage-point datasets of the study.
type Campaign struct {
	Seed     int64
	Datasets []*workload.Dataset // campus1, campus2, home1, home2 order
}

// ByName returns a dataset by vantage point name (nil if absent).
func (c *Campaign) ByName(name string) *workload.Dataset {
	for _, ds := range c.Datasets {
		if ds.Cfg.Name == name {
			return ds
		}
	}
	return nil
}

// ScaleConfig sets per-VP population scaling (fraction of the paper's
// population; the runtime and memory budget of a laptop run).
type ScaleConfig struct {
	Campus1, Campus2, Home1, Home2 float64
}

// DefaultScale keeps a full campaign around a few hundred thousand flows.
func DefaultScale() ScaleConfig {
	return ScaleConfig{Campus1: 1.0, Campus2: 0.25, Home1: 0.08, Home2: 0.08}
}

// SmallScale is used by unit tests and quick benchmarks.
func SmallScale() ScaleConfig {
	return ScaleConfig{Campus1: 0.4, Campus2: 0.08, Home1: 0.03, Home2: 0.03}
}

// vpConfigs returns the four vantage point configs in campaign order with
// their per-VP seed offsets (stable since the first release, so campaign
// results are reproducible across engine versions).
func vpConfigs(sc ScaleConfig) []workload.VPConfig {
	return []workload.VPConfig{
		workload.Campus1(sc.Campus1),
		workload.Campus2(sc.Campus2),
		workload.Home1(sc.Home1),
		workload.Home2(sc.Home2),
	}
}

// concurrently runs fn(0) … fn(n-1) on n goroutines, waits for all of them,
// and returns the error of the lowest index that failed.
func concurrently(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NewCampaign materializes a campaign through the fleet engine: each
// vantage point's population is split into fc.Shards deterministic shards
// generated on fc.Workers workers, and the four vantage points run
// concurrently. fc.Shards == 1 reproduces the historical sequential
// generator output exactly; higher shard counts trade sample identity for
// multi-core wall-clock speed at identical population sizes.
//
// Cancelling ctx aborts generation at fleet-shard granularity and returns
// ctx.Err() with a nil campaign.
func NewCampaign(ctx context.Context, seed int64, sc ScaleConfig, fc fleet.Config) (*Campaign, error) {
	cfgs := vpConfigs(sc)
	datasets := make([]*workload.Dataset, len(cfgs))
	err := concurrently(len(cfgs), func(i int) (err error) {
		datasets[i], err = fleet.Dataset(ctx, cfgs[i], seed+int64(i)+1, fc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &Campaign{Seed: seed, Datasets: datasets}, nil
}

// ---------- shared helpers ----------

// dropboxRecords filters a dataset to Dropbox flows.
func dropboxRecords(ds *workload.Dataset) []*traces.FlowRecord {
	var out []*traces.FlowRecord
	for _, r := range ds.Records {
		if classify.ProviderOf(r) == classify.ProvDropbox {
			out = append(out, r)
		}
	}
	return out
}

// clientStorageRecords filters to client storage (dl-clientX) flows.
func clientStorageRecords(ds *workload.Dataset) []*traces.FlowRecord {
	var out []*traces.FlowRecord
	for _, r := range ds.Records {
		if classify.ProviderOf(r) != classify.ProvDropbox {
			continue
		}
		if classify.DropboxService(r) == dnssim.SvcClientStorage {
			out = append(out, r)
		}
	}
	return out
}

// householdVolumes accumulates per-IP store/retrieve payload volumes of
// client storage flows.
func householdVolumes(ds *workload.Dataset) (store, retr map[wire.IP]int64) {
	store = make(map[wire.IP]int64)
	retr = make(map[wire.IP]int64)
	for _, r := range clientStorageRecords(ds) {
		switch classify.TagStorage(r) {
		case classify.DirStore:
			store[r.Client] += classify.Payload(r, classify.DirStore)
		case classify.DirRetrieve:
			retr[r.Client] += classify.Payload(r, classify.DirRetrieve)
		}
	}
	return store, retr
}

// dropboxClients returns the set of IPs with a Dropbox client (seen on the
// notification protocol).
func dropboxClients(ds *workload.Dataset) map[wire.IP]bool {
	out := make(map[wire.IP]bool)
	for _, r := range ds.Records {
		if r.NotifyHost != 0 {
			out[r.Client] = true
		}
	}
	return out
}

// sessionsOf reconstructs device sessions from notification flows.
func sessionsOf(ds *workload.Dataset) []classify.Session {
	return classify.Sessions(dropboxRecords(ds), 5*time.Minute)
}

// perVP runs fn over every dataset in campaign order.
func (c *Campaign) perVP(fn func(ds *workload.Dataset)) {
	for _, ds := range c.Datasets {
		fn(ds)
	}
}

// fmtGB renders bytes as gigabytes with two decimals.
func fmtGB(v float64) string { return fmt.Sprintf("%.2f", v/1e9) }

// All runs every campaign-level experiment (packet-level labs excluded;
// see RunPacketLabs) and returns results in paper order.
func All(c *Campaign) []*Result {
	return []*Result{
		Table1(),
		Table2(c),
		Table3(c),
		Table5(c),
		Figure2(c),
		Figure3(c),
		Figure4(c),
		Figure5(c),
		Figure6(c),
		Figure7(c),
		Figure8(c),
		Figure11(c),
		Figure12(c),
		Figure13(c),
		Figure14(c),
		Figure15(c),
		Figure16(c),
		Figure17(c),
		Figure18(c),
		Figure20(c),
		Figure21(c),
	}
}
