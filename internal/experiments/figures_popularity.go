package experiments

import (
	"fmt"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/classify"
	"insidedropbox/internal/dnssim"
	"insidedropbox/internal/wire"
	"insidedropbox/internal/workload"
)

// Figure2 reproduces the popularity comparison in Home 1: distinct client
// addresses per day and data volume per day for each provider.
func Figure2(ts Tallies) *Result {
	res := newResult("figure2", "Figure 2: Popularity of cloud storage in Home 1")
	t := ts.ByName("home1")
	days := t.Cfg.Days

	providers := []classify.Provider{classify.ProvICloud, classify.ProvDropbox,
		classify.ProvSkyDrive, classify.ProvGoogleDrive, classify.ProvOtherCloud}
	ipsPerDay := make(map[classify.Provider][]int)
	volPerDay := make(map[classify.Provider][]float64)
	for _, p := range providers {
		ipsPerDay[p] = make([]int, days)
		volPerDay[p] = make([]float64, days)
		for d := range volPerDay[p] {
			volPerDay[p][d] = float64(t.providerDays[d][p])
		}
	}
	for k := range t.providerIPs {
		ipsPerDay[k.p][k.day]++
	}

	// Panel (a): addresses per day.
	plotA := analysis.NewPlot(res.Title+" (a) IP addresses", "day", "# addrs")
	for _, p := range providers {
		xs := make([]float64, days)
		ys := make([]float64, days)
		for d := 0; d < days; d++ {
			xs[d] = float64(d)
			ys[d] = float64(ipsPerDay[p][d])
		}
		plotA.AddSeries(p.String(), xs, ys)
	}
	res.addText(plotA.String())

	// Panel (b): volume per day (log y).
	plotB := analysis.NewPlot(res.Title+" (b) Data volume", "day", "bytes/day")
	plotB.LogY = true
	for _, p := range providers {
		xs := make([]float64, 0, days)
		ys := make([]float64, 0, days)
		for d := 0; d < days; d++ {
			if volPerDay[p][d] > 0 {
				xs = append(xs, float64(d))
				ys = append(ys, volPerDay[p][d])
			}
		}
		plotB.AddSeries(p.String(), xs, ys)
	}
	res.addText(plotB.String())

	// Headline metrics: average active addresses and the volume ordering.
	for _, p := range providers {
		sumIPs, sumVol := 0.0, 0.0
		active := 0
		for d := 0; d < days; d++ {
			if ipsPerDay[p][d] > 0 {
				sumIPs += float64(ipsPerDay[p][d])
				sumVol += volPerDay[p][d]
				active++
			}
		}
		if active > 0 {
			res.Metrics["avg_ips_"+p.String()] = sumIPs / float64(active)
		}
		res.Metrics["vol_"+p.String()] = sumVol
	}
	res.Metrics["gdrive_first_day"] = firstActiveDay(volPerDay[classify.ProvGoogleDrive])
	res.addText(fmt.Sprintf("iCloud households lead in count; Dropbox dominates volume "+
		"(Dropbox %.1fx iCloud by bytes). Google Drive appears on day %.0f (launch).\n",
		res.Metrics["vol_Dropbox"]/res.Metrics["vol_iCloud"], res.Metrics["gdrive_first_day"]))
	return res
}

func firstActiveDay(vols []float64) float64 {
	for d, v := range vols {
		if v > 0 {
			return float64(d)
		}
	}
	return -1
}

// Figure3 reproduces the Dropbox vs YouTube share of total traffic in
// Campus 2.
func Figure3(ts Tallies) *Result {
	res := newResult("figure3", "Figure 3: YouTube and Dropbox share in Campus 2")
	t := ts.ByName("campus2")
	days := t.Cfg.Days
	dbx := make([]float64, days)
	cloudOther := make([]float64, days)
	for d, vols := range t.providerDays {
		var other int64
		for p, v := range vols {
			if classify.Provider(p) != classify.ProvDropbox {
				other += v
			}
		}
		dbx[d], cloudOther[d] = float64(vols[classify.ProvDropbox]), float64(other)
	}
	plot := analysis.NewPlot(res.Title, "day", "share of total volume")
	xs := make([]float64, days)
	ySh := make([]float64, days)
	yYt := make([]float64, days)
	var dbxShareSum, ytShareSum float64
	n := 0
	for d := 0; d < days; d++ {
		total := dbx[d] + cloudOther[d] + t.BackgroundByDay[d] + t.YouTubeByDay[d]
		xs[d] = float64(d)
		if total > 0 {
			ySh[d] = dbx[d] / total
			yYt[d] = t.YouTubeByDay[d] / total
			dbxShareSum += ySh[d]
			ytShareSum += yYt[d]
			n++
		}
	}
	plot.AddSeries("YouTube", xs, yYt)
	plot.AddSeries("Dropbox", xs, ySh)
	res.addText(plot.String())
	res.Metrics["dropbox_share"] = dbxShareSum / float64(n)
	res.Metrics["youtube_share"] = ytShareSum / float64(n)
	res.Metrics["ratio"] = res.Metrics["dropbox_share"] / res.Metrics["youtube_share"]
	res.addText(fmt.Sprintf("mean shares: Dropbox %.1f%%, YouTube %.1f%% — Dropbox ≈ %.2f of YouTube (paper: ≈1/3)\n",
		100*res.Metrics["dropbox_share"], 100*res.Metrics["youtube_share"], res.Metrics["ratio"]))
	return res
}

// Figure4 reproduces the traffic share per Dropbox server group, in bytes
// and in flows, for every vantage point.
func Figure4(ts Tallies) *Result {
	res := newResult("figure4", "Figure 4: Traffic share of Dropbox servers")
	order := []dnssim.Service{dnssim.SvcClientStorage, dnssim.SvcWebStorage,
		dnssim.SvcAPIStorage, dnssim.SvcClientControl, dnssim.SvcNotify,
		dnssim.SvcWebControl, dnssim.SvcAPIControl, dnssim.SvcSystemLog, dnssim.SvcUnknown}
	names := make([]string, len(ts))
	for i, t := range ts {
		names[i] = t.Cfg.Name
	}
	tbB := analysis.NewTable(res.Title+" — fraction of bytes", append([]string{"service"}, names...)...)
	tbF := analysis.NewTable(res.Title+" — fraction of flows", append([]string{"service"}, names...)...)
	for _, svc := range order {
		rowB := []any{svc.String()}
		rowF := []any{svc.String()}
		for _, t := range ts {
			var b, f float64
			if v := t.Services[svc]; v.Flows > 0 {
				dbx := t.Providers[classify.ProvDropbox]
				b, f = float64(v.Bytes)/float64(dbx.Bytes), float64(v.Flows)/float64(dbx.Flows)
			}
			rowB = append(rowB, b)
			rowF = append(rowF, f)
			res.Metrics[fmt.Sprintf("bytes_%s_%s", t.Cfg.Name, svc.String())] = b
			res.Metrics[fmt.Sprintf("flows_%s_%s", t.Cfg.Name, svc.String())] = f
		}
		tbB.AddRow(rowB...)
		tbF.AddRow(rowF...)
	}
	res.addText(tbB.String())
	res.addText("")
	res.addText(tbF.String())
	return res
}

// Figure5 reproduces the number of distinct storage server addresses
// contacted per day at each vantage point.
func Figure5(ts Tallies) *Result {
	res := newResult("figure5", "Figure 5: Number of contacted storage servers")
	plot := analysis.NewPlot(res.Title, "day", "server IP addrs")
	for _, t := range ts {
		days := t.Cfg.Days
		perDay := make([]map[wire.IP]bool, days)
		for i := range perDay {
			perDay[i] = make(map[wire.IP]bool)
		}
		for i := range t.Storage {
			r := t.Storage[i].Record()
			d := workload.DayOfRecord(&r)
			if d >= 0 && d < days {
				perDay[d][r.Server] = true
			}
		}
		xs := make([]float64, days)
		ys := make([]float64, days)
		sum := 0.0
		for d := 0; d < days; d++ {
			xs[d] = float64(d)
			ys[d] = float64(len(perDay[d]))
			sum += ys[d]
		}
		plot.AddSeries(t.Cfg.Name, xs, ys)
		res.Metrics["avg_servers_"+t.Cfg.Name] = sum / float64(days)
	}
	res.addText(plot.String())
	res.addText("Busier vantage points contact more of the ~640-address pool daily\n" +
		"(population scaling lowers absolute counts versus the paper).\n")
	return res
}

// Figure6 reproduces the minimum-RTT CDFs toward storage and control
// data-centers.
func Figure6(ts Tallies) *Result {
	res := newResult("figure6", "Figure 6: Minimum RTT of storage and control flows")
	storage := analysis.NewPlot(res.Title+" — storage", "ms", "CDF")
	control := analysis.NewPlot(res.Title+" — control", "ms", "CDF")
	for _, t := range ts {
		if st := t.StorageRTT(); len(st) > 0 {
			storage.AddECDF(t.Cfg.Name, analysis.NewECDF(st))
			res.Metrics["storage_median_"+t.Cfg.Name] = analysis.Median(st)
		}
		if ct := t.ControlRTT; len(ct) > 0 {
			control.AddECDF(t.Cfg.Name, analysis.NewECDF(ct))
			res.Metrics["control_median_"+t.Cfg.Name] = analysis.Median(ct)
		}
	}
	res.addText(storage.String())
	res.addText("")
	res.addText(control.String())
	res.addText("Storage RTTs sit in the 80-120 ms band, control in 140-220 ms —\n" +
		"two distinct centralized U.S. data-centers (Sec. 4.2.2).\n")
	return res
}

// Figure7 reproduces the storage flow-size CDFs.
// The paper plots TCP flow sizes including SSL overhead: raw flow bytes in
// the transfer direction.
func Figure7(ts Tallies) *Result {
	res := newResult("figure7", "Figure 7: TCP flow sizes of file storage (Dropbox client)")
	ps := analysis.NewPlot(res.Title+" — store", "flow size (bytes)", "CDF")
	pr := analysis.NewPlot(res.Title+" — retrieve", "flow size (bytes)", "CDF")
	ps.LogX, pr.LogX = true, true
	for _, t := range ts {
		st, rt := t.StorageSizes()
		if len(st) > 0 {
			e := analysis.NewECDF(st)
			ps.AddECDF(t.Cfg.Name, e)
			res.Metrics["store_le10k_"+t.Cfg.Name] = e.At(10e3)
			res.Metrics["store_le100k_"+t.Cfg.Name] = e.At(100e3)
			res.Metrics["store_max_"+t.Cfg.Name] = e.Max()
		}
		if len(rt) > 0 {
			e := analysis.NewECDF(rt)
			pr.AddECDF(t.Cfg.Name, e)
			res.Metrics["retr_le100k_"+t.Cfg.Name] = e.At(100e3)
		}
	}
	res.addText(ps.String())
	res.addText("")
	res.addText(pr.String())
	return res
}

// Figure8 reproduces the estimated chunks-per-flow CDFs.
func Figure8(ts Tallies) *Result {
	res := newResult("figure8", "Figure 8: Estimated number of chunks per storage flow")
	ps := analysis.NewPlot(res.Title+" — store", "chunks", "CDF")
	pr := analysis.NewPlot(res.Title+" — retrieve", "chunks", "CDF")
	ps.LogX, pr.LogX = true, true
	for _, t := range ts {
		var st, rt []float64
		for i := range t.Storage {
			r := t.Storage[i].Record()
			d := classify.TagStorage(&r)
			chunks := float64(classify.EstimateChunks(&r, d))
			if d == classify.DirStore {
				st = append(st, chunks)
			} else {
				rt = append(rt, chunks)
			}
		}
		if len(st) > 0 {
			e := analysis.NewECDF(st)
			ps.AddECDF(t.Cfg.Name, e)
			res.Metrics["store_le10_"+t.Cfg.Name] = e.At(10)
		}
		if len(rt) > 0 {
			e := analysis.NewECDF(rt)
			pr.AddECDF(t.Cfg.Name, e)
			res.Metrics["retr_le10_"+t.Cfg.Name] = e.At(10)
		}
	}
	res.addText(ps.String())
	res.addText("")
	res.addText(pr.String())
	res.addText("Most flows carry few chunks; a second mass at 100 reflects the\n" +
		"batch limit (Sec. 2.3.2).\n")
	return res
}
