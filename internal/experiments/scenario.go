package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"time"

	"insidedropbox/internal/analysis"
	"insidedropbox/internal/backend"
	"insidedropbox/internal/scenario"
	"insidedropbox/internal/telemetry"
)

// Scenario stream memoization telemetry, mirroring the campaign and
// packet-lab counters: builds=1 per Session however many scenario and
// backend experiments run.
var (
	mScenarioHits   = telemetry.NewCounter("session.scenario_hits")
	mScenarioBuilds = telemetry.NewCounter("session.scenario_builds")
)

// ScenarioStream compiles the session's scenario spec and streams its
// population once, memoizing the result for every scenario and backend
// experiment in the selection. The compiled seed honors the spec's
// base.seed override; Fleet.Workers and Fleet.Observer carry over from
// the session (they never change results). Without a spec it streams the
// implied one: Home 1 at Scale.Home1 (a zero takes the scenario default)
// and Fleet.Shards, seeded Seed+3 (the campaign's Home 1 offset, so the
// backend lab replays the population the tables fold), with no cohorts
// and no backend section — the legacy configuration, bit for bit. Failed
// runs are not memoized.
func (s *Session) ScenarioStream(ctx context.Context) (*scenario.Compiled, *scenario.StreamResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scStream != nil {
		mScenarioHits.Inc()
		return s.scComp, s.scStream, nil
	}
	mScenarioBuilds.Inc()
	sp, seed := s.Scenario, s.Seed
	if sp == nil {
		sp = &scenario.Spec{Schema: scenario.Schema, Name: "default",
			Base: scenario.BaseSpec{VP: "home1", Scale: s.Scale.Home1, Shards: s.Fleet.Shards}}
		seed += 3
	}
	comp, err := scenario.Compile(sp, seed)
	if err != nil {
		return nil, nil, err
	}
	comp.Fleet.Observer = s.Fleet.Observer
	stream, err := scenario.CollectStream(ctx, comp, s.Fleet.Workers)
	if err != nil {
		return nil, nil, err
	}
	s.scComp, s.scStream = comp, stream
	return comp, stream, nil
}

// specStream is ScenarioStream for the scenario/* experiments, which
// describe a spec and refuse to run without one.
func (s *Session) specStream(ctx context.Context) (*scenario.Compiled, *scenario.StreamResult, error) {
	if s.Scenario == nil {
		return nil, nil, fmt.Errorf("experiments: scenario/* experiments need a scenario spec (-scenario)")
	}
	return s.ScenarioStream(ctx)
}

// ScenarioPatterns returns the scenario/* experiments a spec opts into:
// scenario/cohorts always, and scenario/flash-crowd only when the spec has
// a backend section for it to replay. An explicit selection of
// scenario/flash-crowd still runs it, and fails on a spec without one.
func ScenarioPatterns(sp *scenario.Spec) []string {
	if sp.Backend == nil {
		return []string{"scenario/cohorts"}
	}
	return []string{"scenario/*"}
}

// registerScenario appends the opt-in scenario experiments; the registry
// init calls it last so they land after the backend family.
func registerScenario() {
	register(Experiment{
		ID: "scenario/cohorts", Title: "Scenario: cohort mix ground truth and stream fingerprint",
		Needs: Needs{OptIn: true},
		Run:   runScenarioCohorts,
	})
	register(Experiment{
		ID: "scenario/flash-crowd", Title: "Scenario: time-varying backend load response under the spec timeline",
		Needs: Needs{OptIn: true},
		Run:   runScenarioFlashCrowd,
	})
}

// scenarioMeta attaches the reproducibility contract of a result that ran
// the session's scenario population: (spec, seed, shards) fully determine
// both the stream hash and every simulated outcome, so two runs
// disagreeing on any of these metrics are running different experiments.
// The base's vantage point and scale name the population that ran.
func scenarioMeta(res *Result, comp *scenario.Compiled, stream *scenario.StreamResult) {
	res.AddMeta("scenario", comp.Spec.Name)
	res.AddMeta("seed", fmt.Sprintf("%d", comp.Seed))
	res.AddMeta("shards", fmt.Sprintf("%d", comp.Fleet.Shards))
	res.AddMeta("vp", comp.VP.Name)
	res.AddMeta("scale", strconv.FormatFloat(comp.VP.Scale, 'g', -1, 64))
	res.AddMeta("stream_hash", fmt.Sprintf("%#016x", stream.StreamHash))
}

// runScenarioCohorts reports the generated ground truth of the spec's
// cohort mix: devices and records per cohort against the spec weights,
// plus the campaign stream fingerprint.
func runScenarioCohorts(ctx context.Context, s *Session) (*Result, error) {
	comp, stream, err := s.specStream(ctx)
	if err != nil {
		return nil, err
	}
	st := stream.Stats

	res := newResult("scenario/cohorts",
		fmt.Sprintf("Scenario %q: %d devices, %d records across %d cohorts",
			comp.Spec.Name, st.Devices, st.Records, len(comp.Spec.Cohorts)))

	if len(comp.Spec.Cohorts) == 0 {
		res.addText("single-population spec (no cohorts section): the stream is the\nlegacy calibrated population, bit for bit.\n")
	} else {
		tb := analysis.NewTable("Cohort ground truth", "cohort", "weight", "devices", "device share", "records")
		names := make([]string, 0, len(st.CohortDevices))
		for n := range st.CohortDevices {
			names = append(names, n)
		}
		sort.Strings(names)
		weights := make(map[string]float64, len(comp.Spec.Cohorts))
		for _, c := range comp.Spec.Cohorts {
			weights[c.Name] = c.Weight
		}
		for _, n := range names {
			dev := st.CohortDevices[n]
			share := 0.0
			if st.Devices > 0 {
				share = float64(dev) / float64(st.Devices)
			}
			tb.AddRow(n, fmt.Sprintf("%.2f", weights[n]), dev,
				fmt.Sprintf("%.1f%%", 100*share), st.CohortRecords[n])
			res.Metrics["cohort_"+n+"_devices"] = float64(dev)
			res.Metrics["cohort_"+n+"_records"] = float64(st.CohortRecords[n])
			res.Metrics["cohort_"+n+"_device_share"] = share
		}
		res.addText(tb.String())
		res.addText("\ndevice share converges on the spec weights as the population grows;\n" +
			"records vary with each cohort's behavior (a CI bot emits far more\n" +
			"flows per device than a photo hoarder). Household-level web and\n" +
			"direct-link flows stay unattributed, so record counts sum below the\n" +
			"campaign total.\n")
	}
	res.Metrics["devices"] = float64(st.Devices)
	res.Metrics["records"] = float64(st.Records)
	res.Metrics["backend_requests"] = float64(len(stream.Requests))
	scenarioMeta(res, comp, stream)
	return res, nil
}

// runScenarioFlashCrowd replays the scenario's arrival set against its
// backend section: capacity is provisioned from the BASE load, surges
// amplify the arrivals, timeline events (outages, rollouts) fire on the
// event queue, and every timeline entry's report window is compared
// against the run-wide baseline — the time-varying load response the
// paper could only observe from outside.
func runScenarioFlashCrowd(ctx context.Context, s *Session) (*Result, error) {
	comp, stream, err := s.specStream(ctx)
	if err != nil {
		return nil, err
	}
	if comp.Backend == nil {
		return nil, fmt.Errorf("scenario/flash-crowd: spec %q has no backend section", comp.Spec.Name)
	}

	cfg, err := comp.Backend.Config(stream.Requests)
	if err != nil {
		return nil, err
	}
	load := comp.Backend.ApplySurges(stream.Requests)
	rep, err := backend.Simulate(ctx, cfg, load)
	if err != nil {
		return nil, err
	}

	res := newResult("scenario/flash-crowd",
		fmt.Sprintf("Scenario %q: %d arrivals (%d after surges) under the %q preset",
			comp.Spec.Name, len(stream.Requests), len(load), comp.Backend.Preset))

	overallP95 := rep.DelayQuantile(0.95)
	res.addText(fmt.Sprintf(
		"%d served / %d dropped / %d shed; run-wide delay mean %v, p95 %v\n",
		rep.Served, rep.Dropped, rep.Shed,
		rep.MeanDelay().Round(time.Microsecond), overallP95.Round(time.Microsecond)))

	if len(rep.Windows) > 0 {
		tb := analysis.NewTable("Timeline windows vs. run-wide baseline",
			"window", "interval", "served", "dropped", "mean delay", "p95", "p95 vs overall")
		for _, w := range rep.Windows {
			p95 := time.Duration(w.Delay.Quantile(0.95))
			rel := "-"
			if overallP95 > 0 {
				rel = fmt.Sprintf("%.2fx", float64(p95)/float64(overallP95))
			}
			tb.AddRow(w.Name,
				fmt.Sprintf("d%.1f-d%.1f", w.Start.Hours()/24, w.End.Hours()/24),
				w.Served, w.Dropped,
				time.Duration(w.Delay.Mean()).Round(time.Microsecond).String(),
				p95.Round(time.Microsecond).String(), rel)
		}
		res.addText(tb.String())
		res.addText("\nunder a scarce preset the surge window shows the queueing knee (delays\n" +
			"far above the run-wide baseline, any loss concentrated in-window); an\n" +
			"infinite deployment absorbs the same surge with zero delay — capacity,\n" +
			"not the flash crowd, makes the event visible.\n")
	}

	res.Metrics["requests_base"] = float64(len(stream.Requests))
	res.Metrics["requests_load"] = float64(len(load))
	for k, v := range rep.Metrics() {
		res.Metrics[k] = v
	}
	scenarioMeta(res, comp, stream)
	return res, nil
}
