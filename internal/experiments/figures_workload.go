package experiments

import (
	"fmt"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/classify"
)

// Figure11 reproduces the per-household store/retrieve volume scatter for
// the home networks, marked by device count.
func Figure11(ts Tallies) *Result {
	res := newResult("figure11", "Figure 11: Data volume stored and retrieved per household")
	for _, name := range []string{"home1", "home2"} {
		t := ts.ByName(name)
		store, retr := t.HouseholdVolumes()
		plot := analysis.NewPlot(fmt.Sprintf("%s — %s", res.Title, name),
			"retrieve (bytes)", "store (bytes)")
		plot.LogX, plot.LogY = true, true
		groups := map[string][2][]float64{}
		var totalStore, totalRetr float64
		for ip, devices := range t.DevicesPerHousehold() {
			s, r := float64(store[ip]), float64(retr[ip])
			totalStore += s
			totalRetr += r
			// Points at <1kB sit on the axes in the paper; clamp for log.
			if s < 1e3 {
				s = 1e3
			}
			if r < 1e3 {
				r = 1e3
			}
			key := "1 dev"
			switch {
			case devices >= 4:
				key = ">3 dev"
			case devices >= 2:
				key = "2-3 dev"
			}
			g := groups[key]
			g[0] = append(g[0], r)
			g[1] = append(g[1], s)
			groups[key] = g
		}
		for _, key := range []string{"1 dev", "2-3 dev", ">3 dev"} {
			g := groups[key]
			if len(g[0]) > 0 {
				plot.AddSeries(key, g[0], g[1])
			}
		}
		res.addText(plot.String())
		ratio := totalRetr / totalStore
		res.Metrics["dl_ul_ratio_"+name] = ratio
		res.addText(fmt.Sprintf("%s download/upload ratio = %.2f (paper: home1 1.4, home2 0.9)\n\n", name, ratio))
	}
	return res
}

// Figure12 reproduces the devices-per-household distribution.
func Figure12(ts Tallies) *Result {
	res := newResult("figure12", "Figure 12: Devices per household (Dropbox client)")
	tb := analysis.NewTable(res.Title, "devices", "home1", "home2")
	counters := map[string]*analysis.Counter{}
	for _, name := range []string{"home1", "home2"} {
		cnt := analysis.NewCounter()
		for _, n := range ts.ByName(name).DevicesPerHousehold() {
			cnt.Add(n)
		}
		counters[name] = cnt
	}
	for _, n := range []int{1, 2, 3, 4} {
		tb.AddRow(fmt.Sprintf("%d", n),
			counters["home1"].Fraction(n), counters["home2"].Fraction(n))
	}
	tb.AddRow(">4", counters["home1"].FractionAtLeast(5), counters["home2"].FractionAtLeast(5))
	for name, cnt := range counters {
		res.Metrics["frac1_"+name] = cnt.Fraction(1)
		res.Metrics["frac_ge2_"+name] = cnt.FractionAtLeast(2)
	}
	res.addText(tb.String())
	res.addText("\n≈60% of households run a single device; ≈30% have more than one\n" +
		"linked device (Sec. 5.2).\n")
	return res
}

// Figure13 reproduces the namespaces-per-device CDF for Campus 1 and
// Home 1 (the vantage points exposing namespace lists).
func Figure13(ts Tallies) *Result {
	res := newResult("figure13", "Figure 13: Number of namespaces per device")
	plot := analysis.NewPlot(res.Title, "namespaces", "CDF")
	for _, name := range []string{"campus1", "home1"} {
		var xs []float64
		for _, ns := range ts.ByName(name).hosts {
			if ns.n > 0 {
				xs = append(xs, float64(ns.n))
			}
		}
		if len(xs) == 0 {
			continue
		}
		e := analysis.NewECDF(xs)
		plot.AddECDF(name, e)
		res.Metrics["frac1_"+name] = e.At(1)
		res.Metrics["frac_ge5_"+name] = 1 - e.At(4)
	}
	res.addText(plot.String())
	res.addText(fmt.Sprintf("\nusers with only the root namespace: campus1 %.0f%%, home1 %.0f%% (paper: 13%%, 28%%)\n"+
		"users with >=5 namespaces: campus1 %.0f%%, home1 %.0f%% (paper: 50%%, 23%%)\n",
		100*res.Metrics["frac1_campus1"], 100*res.Metrics["frac1_home1"],
		100*res.Metrics["frac_ge5_campus1"], 100*res.Metrics["frac_ge5_home1"]))
	return res
}

// Figure14 reproduces the fraction of devices starting a session per day.
func Figure14(ts Tallies) *Result {
	res := newResult("figure14", "Figure 14: Distinct device start-ups per day")
	plot := analysis.NewPlot(res.Title, "day", "fraction of devices")
	for _, t := range ts {
		days := t.Cfg.Days
		devices := make(map[uint64]bool)
		perDay := make([]map[uint64]bool, days)
		for i := range perDay {
			perDay[i] = make(map[uint64]bool)
		}
		for _, s := range t.sessions {
			devices[s.Host] = true
			d := int(s.Start / (24 * time.Hour))
			if d >= 0 && d < len(perDay) {
				perDay[d][s.Host] = true
			}
		}
		if len(devices) == 0 {
			continue
		}
		xs := make([]float64, days)
		ys := make([]float64, days)
		sum := 0.0
		for d := 0; d < days; d++ {
			xs[d] = float64(d)
			ys[d] = float64(len(perDay[d])) / float64(len(devices))
			sum += ys[d]
		}
		plot.AddSeries(t.Cfg.Name, xs, ys)
		res.Metrics["avg_frac_"+t.Cfg.Name] = sum / float64(days)
	}
	res.addText(plot.String())
	res.addText("Home networks hover near a constant fraction daily; campuses show\n" +
		"strong weekly seasonality (Sec. 5.4).\n")
	return res
}

// Figure15 reproduces the hourly usage profiles on weekdays: session
// start-ups, active devices, retrieve and store volumes.
func Figure15(ts Tallies) *Result {
	res := newResult("figure15", "Figure 15: Daily usage of Dropbox on weekdays")
	storageBytes := func(dir classify.Direction) func(*Tally, *analysis.HourOfDayProfile) {
		return func(t *Tally, prof *analysis.HourOfDayProfile) {
			for i := range t.Storage {
				if r := t.Storage[i].Record(); classify.TagStorage(&r) == dir {
					prof.Add(r.FirstPacket, float64(classify.Payload(&r, dir)), true)
				}
			}
		}
	}
	panels := []struct {
		title string
		fill  func(t *Tally, prof *analysis.HourOfDayProfile)
	}{
		{"(a) session start-ups", func(t *Tally, prof *analysis.HourOfDayProfile) {
			for _, s := range t.sessions {
				prof.Add(s.Start, 1, true)
			}
		}},
		{"(b) active devices", func(t *Tally, prof *analysis.HourOfDayProfile) {
			for _, s := range t.sessions {
				for at := s.Start; at < s.End; at += time.Hour {
					prof.Add(at, 1, true)
				}
			}
		}},
		{"(c) retrieve bytes", storageBytes(classify.DirRetrieve)},
		{"(d) store bytes", storageBytes(classify.DirStore)},
	}
	for pi, panel := range panels {
		plot := analysis.NewPlot(fmt.Sprintf("%s %s", res.Title, panel.title), "hour", "fraction")
		for _, t := range ts {
			var prof analysis.HourOfDayProfile
			panel.fill(t, &prof)
			fr := prof.Fractions()
			xs := make([]float64, 24)
			ys := make([]float64, 24)
			peak := 0
			for h := 0; h < 24; h++ {
				xs[h] = float64(h)
				ys[h] = fr[h]
				if fr[h] > fr[peak] {
					peak = h
				}
			}
			plot.AddSeries(t.Cfg.Name, xs, ys)
			if pi == 0 {
				res.Metrics["startup_peak_hour_"+t.Cfg.Name] = float64(peak)
			}
		}
		res.addText(plot.String())
		res.addText("")
	}
	return res
}

// Figure16 reproduces the session-duration CDFs (durations of notification
// flows, as the paper measures them).
func Figure16(ts Tallies) *Result {
	res := newResult("figure16", "Figure 16: Distribution of session durations")
	plot := analysis.NewPlot(res.Title, "seconds", "CDF")
	plot.LogX = true
	for _, t := range ts {
		if len(t.NotifySeconds) == 0 {
			continue
		}
		e := analysis.NewECDF(t.NotifySeconds)
		plot.AddECDF(t.Cfg.Name, e)
		res.Metrics["sub_minute_"+t.Cfg.Name] = e.At(60)
		res.Metrics["le_4h_"+t.Cfg.Name] = e.At(4 * 3600)
		res.Metrics["median_s_"+t.Cfg.Name] = e.Median()
	}
	res.addText(plot.String())
	res.addText("Home networks show a sub-minute mass (NAT/firewall-killed notification\n" +
		"connections); Campus 1 skews long (8-hour workstations); tails reflect\n" +
		"always-on devices (Sec. 5.5).\n")
	return res
}

// Figure17 reproduces the main Web interface storage flow sizes.
func Figure17(ts Tallies) *Result {
	res := newResult("figure17", "Figure 17: Storage via the main Web interface")
	up := analysis.NewPlot(res.Title+" — upload", "bytes", "CDF")
	down := analysis.NewPlot(res.Title+" — download", "bytes", "CDF")
	up.LogX, down.LogX = true, true
	for _, t := range ts {
		if len(t.WebUp) == 0 {
			continue
		}
		eu, ed := analysis.NewECDF(t.WebUp), analysis.NewECDF(t.WebDown)
		up.AddECDF(t.Cfg.Name, eu)
		down.AddECDF(t.Cfg.Name, ed)
		res.Metrics["up_le10k_"+t.Cfg.Name] = eu.At(10e3)
		res.Metrics["down_le10M_"+t.Cfg.Name] = ed.At(10e6)
	}
	res.addText(up.String())
	res.addText("")
	res.addText(down.String())
	res.addText("Uploads through the Web interface are negligible (>95% of flows under\n" +
		"10 kB); downloads stay small (Sec. 6).\n")
	return res
}

// Figure18 reproduces direct-link download sizes (Campus 2 lacks FQDNs and
// is omitted, as in the paper).
func Figure18(ts Tallies) *Result {
	res := newResult("figure18", "Figure 18: Size of direct link downloads")
	plot := analysis.NewPlot(res.Title, "bytes", "CDF")
	plot.LogX = true
	for _, t := range ts {
		// Campus 2 is not depicted: no FQDN visibility.
		if !t.Cfg.HasDNS || len(t.DirectLinks) == 0 {
			continue
		}
		e := analysis.NewECDF(t.DirectLinks)
		plot.AddECDF(t.Cfg.Name, e)
		res.Metrics["gt10M_"+t.Cfg.Name] = 1 - e.At(10e6)
	}
	res.addText(plot.String())
	res.addText("Only a small share of direct-link downloads exceeds 10 MB — link\n" +
		"sharing is not movie/archive distribution (Sec. 6).\n")
	return res
}

// Figure20 reproduces the store/retrieve byte scatter with the f(u)
// separation function (Campus 1, Appendix A.2).
func Figure20(ts Tallies) *Result {
	res := newResult("figure20", "Figure 20: Bytes exchanged in storage flows (Campus 1) with f(u)")
	storage := ts.ByName("campus1").Storage
	plot := analysis.NewPlot(res.Title, "upload (bytes)", "download (bytes)")
	plot.LogX, plot.LogY = true, true
	var storeX, storeY, retrX, retrY []float64
	misclass := 0
	n := 0
	for i := range storage {
		r := storage[i].Record()
		u := float64(r.BytesUp)
		d := float64(r.BytesDown)
		if u <= 0 || d <= 0 {
			continue
		}
		n++
		dir := classify.TagStorage(&r)
		// Ground truth via PSH structure: retrieve flows carry paired PSH
		// requests; compare against the byte-based tag.
		truthRetr := r.PSHUp >= 2+2 && r.PSHUp%2 == 0 && d > u
		if dir == classify.DirRetrieve {
			retrX = append(retrX, u)
			retrY = append(retrY, d)
			if !truthRetr && d < classify.F(u) {
				misclass++
			}
		} else {
			storeX = append(storeX, u)
			storeY = append(storeY, d)
		}
	}
	plot.AddSeries("store", storeX, storeY)
	plot.AddSeries("retrieve", retrX, retrY)
	// The f(u) boundary.
	var fx, fy []float64
	for u := 300.0; u < 1e9; u *= 1.6 {
		fx = append(fx, u)
		fy = append(fy, classify.F(u))
	}
	plot.AddSeries("f(u)", fx, fy)
	res.addText(plot.String())
	res.Metrics["flows"] = float64(n)
	res.Metrics["store_flows"] = float64(len(storeX))
	res.Metrics["retrieve_flows"] = float64(len(retrX))
	res.addText("Store flows hug the x-axis (uploads with tiny acks), retrieves the\n" +
		"y-axis; f(u) separates the two groups (Appendix A.2).\n")
	return res
}

// Figure21 reproduces the payload-per-chunk proportion CDFs that validate
// the chunk estimator.
func Figure21(ts Tallies) *Result {
	res := newResult("figure21", "Figure 21: Payload per estimated chunk (reverse direction)")
	ps := analysis.NewPlot(res.Title+" — store", "bytes/chunk", "CDF")
	pr := analysis.NewPlot(res.Title+" — retrieve", "bytes/chunk", "CDF")
	for _, t := range ts {
		var st, rt []float64
		for i := range t.Storage {
			r := t.Storage[i].Record()
			d := classify.TagStorage(&r)
			chunks := classify.EstimateChunks(&r, d)
			if chunks < 1 {
				continue
			}
			if d == classify.DirStore {
				// Reverse direction of a store is the server's: payload
				// minus handshake divided by chunks ≈ 309 bytes.
				v := float64(r.BytesDown-classify.SSLServerHandshake) / float64(chunks)
				if v > 0 && v < 600 {
					st = append(st, v)
				}
			} else {
				v := float64(r.BytesUp-classify.SSLClientHandshake) / float64(chunks)
				if v > 0 && v < 600 {
					rt = append(rt, v)
				}
			}
		}
		if len(st) > 0 {
			e := analysis.NewECDF(st)
			ps.AddECDF(t.Cfg.Name, e)
			res.Metrics["store_median_"+t.Cfg.Name] = e.Median()
		}
		if len(rt) > 0 {
			e := analysis.NewECDF(rt)
			pr.AddECDF(t.Cfg.Name, e)
			res.Metrics["retr_median_"+t.Cfg.Name] = e.Median()
		}
	}
	ps.SetBounds(0, 600, 0, 1)
	pr.SetBounds(0, 600, 0, 1)
	res.addText(ps.String())
	res.addText("")
	res.addText(pr.String())
	res.addText("Store flows concentrate near 309 bytes per chunk (the HTTP OK);\n" +
		"retrieve requests fall in 362-426 bytes (Appendix A.3).\n")
	return res
}
