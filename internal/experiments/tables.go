package experiments

import (
	"context"
	"fmt"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// Table1 reproduces the service domain-name map (static: it documents the
// simulated DNS layout and verifies classification coverage).
func Table1() *Result {
	res := newResult("table1", "Table 1: Domain names used by different Dropbox services")
	tb := analysis.NewTable(res.Title, "sub-domain", "data-center", "description")
	rows := []struct{ name, dc, desc string }{
		{"client-lb/clientX", "Dropbox", "Meta-data"},
		{"notifyX", "Dropbox", "Notifications"},
		{"api", "Dropbox", "API control"},
		{"www", "Dropbox", "Web servers"},
		{"d", "Dropbox", "Event logs"},
		{"dl", "Amazon", "Direct links"},
		{"dl-clientX", "Amazon", "Client storage"},
		{"dl-debugX", "Amazon", "Back-traces"},
		{"dl-web", "Amazon", "Web storage"},
		{"api-content", "Amazon", "API Storage"},
	}
	for _, r := range rows {
		tb.AddRow(r.name, r.dc, r.desc)
	}
	res.addText(tb.String())
	dir := dnssim.Build(dnssim.DefaultLayout())
	res.Metrics["names"] = float64(len(dir.Names()))
	res.Metrics["storage_names"] = float64(len(dir.StorageNames))
	return res
}

// Table2 reproduces the datasets overview: per vantage point, access type,
// distinct client addresses and total volume.
func Table2(ts Tallies) *Result {
	res := newResult("table2", "Table 2: Datasets overview")
	tb := analysis.NewTable(res.Title, "name", "type", "IP addrs", "vol (GB)", "scale")
	types := map[string]string{
		"campus1": "Wired", "campus2": "Wired/Wireless",
		"home1": "FTTH/ADSL", "home2": "ADSL",
	}
	for _, t := range ts {
		var vol float64
		for _, v := range t.Providers {
			vol += float64(v.Bytes)
		}
		for _, v := range t.BackgroundByDay {
			vol += v
		}
		tb.AddRow(t.Cfg.Name, types[t.Cfg.Name], t.Cfg.TotalIPs, fmtGB(vol),
			fmt.Sprintf("%.2f", t.Cfg.Scale))
		res.Metrics["ips_"+t.Cfg.Name] = float64(t.Cfg.TotalIPs)
		res.Metrics["gb_"+t.Cfg.Name] = vol / 1e9
	}
	res.addText(tb.String())
	return res
}

// Table3 reproduces total Dropbox traffic: flows, volume and devices per
// vantage point.
func Table3(ts Tallies) *Result {
	res := newResult("table3", "Table 3: Total Dropbox traffic in the datasets")
	tb := analysis.NewTable(res.Title, "name", "flows", "vol (GB)", "devices")
	var totFlows, totDev int
	var totVol float64
	for _, t := range ts {
		dbx := t.Providers[classify.ProvDropbox]
		flows, vol, devices := int(dbx.Flows), float64(dbx.Bytes), len(t.hosts)
		tb.AddRow(t.Cfg.Name, flows, fmtGB(vol), devices)
		res.Metrics["flows_"+t.Cfg.Name] = float64(flows)
		res.Metrics["gb_"+t.Cfg.Name] = vol / 1e9
		res.Metrics["devices_"+t.Cfg.Name] = float64(devices)
		totFlows += flows
		totVol += vol
		totDev += devices
	}
	tb.AddRow("total", totFlows, fmtGB(totVol), totDev)
	res.Metrics["flows_total"] = float64(totFlows)
	res.Metrics["gb_total"] = totVol / 1e9
	res.Metrics["devices_total"] = float64(totDev)
	res.addText(tb.String())
	return res
}

// table4 compares Campus 1 before (Mar/Apr, client 1.2.52, server IW 2)
// and after (Jun/Jul, client 1.4.0, bundling + tuned IW) — the paper's
// quantification of the bundling deployment. Both populations fold on the
// caller's pool with fc, whose Shards must be 1, the historical sequential
// generator's. Cancelling ctx aborts both folds at fleet-shard granularity.
func table4(ctx context.Context, seed int64, scale float64, fc fleet.Config) (*Result, error) {
	res := newResult("table4", "Table 4: Campus 1 before and after the bundling deployment")
	tallies, err := fold(ctx, []fleet.Population{
		{VP: workload.Campus1(scale), Seed: seed + 10},
		{VP: workload.Campus1JunJul(scale), Seed: seed + 11},
	}, fc)
	if err != nil {
		return nil, err
	}
	before, after := tallies[0], tallies[1]

	type stats struct {
		medSize, avgSize, medTp, avgTp map[classify.Direction]float64
	}
	collect := func(t *Tally) stats {
		sizes := map[classify.Direction][]float64{}
		tps := map[classify.Direction][]float64{}
		for i := range t.Storage {
			r := t.Storage[i].Record()
			d := classify.TagStorage(&r)
			p := classify.Payload(&r, d)
			if p <= 0 {
				continue
			}
			sizes[d] = append(sizes[d], float64(p))
			tps[d] = append(tps[d], classify.Throughput(&r, d))
		}
		s := stats{
			medSize: map[classify.Direction]float64{}, avgSize: map[classify.Direction]float64{},
			medTp: map[classify.Direction]float64{}, avgTp: map[classify.Direction]float64{},
		}
		for _, d := range []classify.Direction{classify.DirStore, classify.DirRetrieve} {
			s.medSize[d] = analysis.Median(sizes[d])
			s.avgSize[d] = analysis.Mean(sizes[d])
			s.medTp[d] = analysis.Median(tps[d]) / 1e3
			s.avgTp[d] = analysis.Mean(tps[d]) / 1e3
		}
		return s
	}
	b, a := collect(before), collect(after)
	tb := analysis.NewTable(res.Title, "metric", "Mar/Apr median", "Mar/Apr avg", "Jun/Jul median", "Jun/Jul avg")
	for _, d := range []classify.Direction{classify.DirStore, classify.DirRetrieve} {
		tb.AddRow("flow size "+d.String()+" (kB)",
			b.medSize[d]/1e3, b.avgSize[d]/1e3, a.medSize[d]/1e3, a.avgSize[d]/1e3)
		tb.AddRow("throughput "+d.String()+" (kbit/s)",
			b.medTp[d], b.avgTp[d], a.medTp[d], a.avgTp[d])
		key := d.String()
		res.Metrics["before_median_size_"+key] = b.medSize[d]
		res.Metrics["after_median_size_"+key] = a.medSize[d]
		res.Metrics["before_avg_tp_"+key] = b.avgTp[d] * 1e3
		res.Metrics["after_avg_tp_"+key] = a.avgTp[d] * 1e3
		res.Metrics["before_median_tp_"+key] = b.medTp[d] * 1e3
		res.Metrics["after_median_tp_"+key] = a.medTp[d] * 1e3
	}
	res.addText(tb.String())
	res.addText(fmt.Sprintf("\nretrieve avg throughput improvement: %.0f%% (paper: ≈65%%)\n",
		100*(res.Metrics["after_avg_tp_retrieve"]/res.Metrics["before_avg_tp_retrieve"]-1)))
	return res, nil
}

// Table5 reproduces the user-group characterization of the home networks.
func Table5(ts Tallies) *Result {
	res := newResult("table5", "Table 5: User groups in Home 1 and Home 2")
	for _, name := range []string{"home1", "home2"} {
		t := ts.ByName(name)
		if t == nil {
			continue
		}
		store, retr := t.HouseholdVolumes()
		devs := t.DevicesPerHousehold()

		sessByIP := make(map[wire.IP]int)
		daysByIP := make(map[wire.IP]map[int]bool)
		for _, s := range t.sessions {
			sessByIP[s.Client]++
			if daysByIP[s.Client] == nil {
				daysByIP[s.Client] = make(map[int]bool)
			}
			for d := int(s.Start / (24 * time.Hour)); d <= int(s.End/(24*time.Hour)); d++ {
				daysByIP[s.Client][d] = true
			}
		}

		type agg struct {
			addr, sess    int
			retr, store   float64
			days, devices float64
		}
		groups := map[classify.UserGroup]*agg{}
		for g := classify.GroupOccasional; g <= classify.GroupHeavy; g++ {
			groups[g] = &agg{}
		}
		totalAddr, totalSess := 0, 0
		for ip, n := range devs {
			g := classify.GroupOf(store[ip], retr[ip])
			a := groups[g]
			a.addr++
			a.sess += sessByIP[ip]
			a.retr += float64(retr[ip])
			a.store += float64(store[ip])
			a.days += float64(len(daysByIP[ip]))
			a.devices += float64(n)
			totalAddr++
			totalSess += sessByIP[ip]
		}
		tb := analysis.NewTable(fmt.Sprintf("%s — %s", res.Title, name),
			"group", "addr frac", "sess frac", "retr (GB)", "store (GB)", "avg days", "avg devices")
		for g := classify.GroupOccasional; g <= classify.GroupHeavy; g++ {
			a := groups[g]
			if totalAddr == 0 {
				continue
			}
			addrFrac := float64(a.addr) / float64(totalAddr)
			sessFrac := 0.0
			if totalSess > 0 {
				sessFrac = float64(a.sess) / float64(totalSess)
			}
			avgDays, avgDev := 0.0, 0.0
			if a.addr > 0 {
				avgDays = a.days / float64(a.addr)
				avgDev = a.devices / float64(a.addr)
			}
			tb.AddRow(g.String(), addrFrac, sessFrac, fmtGB(a.retr), fmtGB(a.store), avgDays, avgDev)
			key := fmt.Sprintf("%s_%s", name, g.String())
			res.Metrics[key+"_addr"] = addrFrac
			res.Metrics[key+"_sess"] = sessFrac
			res.Metrics[key+"_devices"] = avgDev
		}
		res.addText(tb.String())
		res.addText("")
	}
	return res
}
