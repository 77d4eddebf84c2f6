package experiments

import (
	"context"
	"fmt"
	"path"
	"sync"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/scenario"
	"insidedropbox/internal/traces"
	"insidedropbox/internal/workload"
)

// Needs declares which shared Session inputs an experiment consumes. The
// orchestration uses it to explain cost (packet labs run the full protocol
// stack) and to decide which experiments belong in a default selection.
type Needs struct {
	// Packet: the experiment drives the packet-level protocol stack (the
	// performance labs and the testbed dissection) — the slow experiments
	// a Spec can skip wholesale.
	Packet bool
	// OptIn: the experiment needs configuration beyond the campaign (the
	// fleet and what-if labs), so default selections exclude it unless the
	// Spec opts in or a pattern names it explicitly.
	OptIn bool
}

// Experiment is one registered table, figure or lab of the catalogue:
// everything cmd/experiments can regenerate, addressable by ID.
type Experiment struct {
	// ID is the unique selection key: "table4", "figure9", "whatif", ...
	ID string
	// Title is the catalogue label (the rendered Result carries the same
	// title, possibly with run parameters appended).
	Title string
	// Needs declares the Session inputs the experiment consumes.
	Needs Needs
	// Run executes the experiment against a Session. Shared inputs (the
	// vantage points' tallies, the packet labs, the testbed) are built
	// lazily on first use and memoized, so running "figure9,figure10" pays
	// for one lab.
	Run func(ctx context.Context, s *Session) (*Result, error)
}

// registry holds the catalogue in presentation order (tables first, then
// figures in paper order, then the beyond-the-paper labs).
var registry []Experiment

// registryIDs guards against duplicate registration.
var registryIDs = map[string]int{}

func register(e Experiment) {
	if _, dup := registryIDs[e.ID]; dup {
		panic("experiments: duplicate experiment id " + e.ID)
	}
	registryIDs[e.ID] = len(registry)
	registry = append(registry, e)
}

// Experiments returns the full catalogue in presentation order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	return out
}

// ByID resolves one experiment by its exact ID.
func ByID(id string) (Experiment, bool) {
	i, ok := registryIDs[id]
	if !ok {
		return Experiment{}, false
	}
	return registry[i], true
}

// Select resolves glob-style patterns ("table4", "figure*", "figure1?")
// against the catalogue, returning matches in catalogue order with
// duplicates removed. With no patterns it returns the default selection:
// every experiment that is not opt-in. A pattern that matches nothing is
// an error, so typos fail instead of silently shrinking a run.
func Select(patterns ...string) ([]Experiment, error) {
	if len(patterns) == 0 {
		var out []Experiment
		for _, e := range registry {
			if !e.Needs.OptIn {
				out = append(out, e)
			}
		}
		return out, nil
	}
	picked := make([]bool, len(registry))
	for _, pat := range patterns {
		found := false
		for i, e := range registry {
			ok, err := path.Match(pat, e.ID)
			if err != nil {
				return nil, fmt.Errorf("experiments: bad pattern %q: %w", pat, err)
			}
			if ok {
				picked[i] = true
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("experiments: no experiment matches %q (see Experiments() for the catalogue)", pat)
		}
	}
	var out []Experiment
	for i, e := range registry {
		if picked[i] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Session carries one run's inputs and memoizes the expensive shared
// artifacts — the vantage points' tallies, the packet-lab record sets and
// the testbed dissection — so any selection of experiments pays for each
// input once. Only successful builds memoize: a build aborted by a
// cancelled context is retried on the next call, so a Session survives an
// interrupted run and is safe to reuse across sequential (or concurrent)
// Run calls.
type Session struct {
	// Seed is the campaign seed (per-VP seeds derive from it exactly as
	// the historical entry points did).
	Seed int64
	// Scale is the per-VP population scaling. Scale.Campus1 also sizes the
	// Table 4 before/after populations and the what-if population, exactly
	// as the historical CLI did.
	Scale ScaleConfig
	// Fleet shards and schedules the engine for the tallies and the
	// labs; its Workers and Observer reach Table 4 and the scenario
	// stream too.
	Fleet fleet.Config
	// Quick selects the small packet-lab configurations.
	Quick bool
	// FleetScale multiplies Scale for the opt-in "fleet" lab (<= 0 means
	// 1x).
	FleetScale float64
	// Profiles are the capability profiles of the opt-in "whatif" lab
	// (nil means the full preset catalogue).
	Profiles []capability.Profile
	// Backend is the capacity preset of the opt-in "backend/*" lab
	// (empty means the provisioned deployment; see backend.Presets).
	Backend string
	// Scenario is the loaded declarative scenario of the opt-in
	// "scenario/*" experiments (nil disables them). The spec's base
	// section wins over Seed and Fleet.Shards for the scenario stream;
	// Fleet.Workers still only affects wall-clock time.
	Scenario *scenario.Spec

	mu        sync.Mutex
	tallies   Tallies
	packStore []*traces.FlowRecord
	packRetr  []*traces.FlowRecord
	packDone  bool
	tb        *TestbedResult
	beReqs    []backend.Request
	scComp    *scenario.Compiled
	scStream  *scenario.StreamResult
}

// Tallies returns the session's four vantage-point tallies, folding them
// on first use. Failed folds are not memoized.
func (s *Session) Tallies(ctx context.Context) (Tallies, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tallies != nil {
		mCampaignHits.Inc()
		return s.tallies, nil
	}
	mCampaignBuilds.Inc()
	ts, err := Fold(ctx, s.Seed, s.Scale, s.Fleet)
	if err != nil {
		return nil, err
	}
	s.tallies = ts
	return ts, nil
}

// PacketRecords returns the storage-flow records of both packet labs
// (store and retrieve), running the labs on first use, side by side when
// Fleet.Workers allows two. Failed runs are not memoized.
func (s *Session) PacketRecords(ctx context.Context) (store, retr []*traces.FlowRecord, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.packDone {
		mPacketHits.Inc()
		return s.packStore, s.packRetr, nil
	}
	mPacketBuilds.Inc()
	storeCfg, retrCfg := DefaultPacketLab(false), DefaultPacketLab(true)
	if s.Quick {
		storeCfg, retrCfg = QuickPacketLab(false), QuickPacketLab(true)
	}
	storeRecs, retrRecs, err := runPacketLabs(ctx, storeCfg, retrCfg, s.Fleet.Workers)
	if err != nil {
		return nil, nil, err
	}
	s.packStore, s.packRetr, s.packDone = storeRecs, retrRecs, true
	return storeRecs, retrRecs, nil
}

// Testbed returns the protocol dissection (Figs. 1 and 19), running the
// testbed on first use. Failed runs are not memoized.
func (s *Session) Testbed(ctx context.Context) (*TestbedResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tb != nil {
		mTestbedHits.Inc()
		return s.tb, nil
	}
	mTestbedBuilds.Inc()
	tb, err := RunTestbed(ctx, s.Seed)
	if err != nil {
		return nil, err
	}
	s.tb = tb
	return tb, nil
}

// regTallies registers a driver that renders from the shared tallies.
func regTallies(id, title string, fn func(Tallies) *Result) {
	register(Experiment{
		ID: id, Title: title,
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			ts, err := s.Tallies(ctx)
			if err != nil {
				return nil, err
			}
			return fn(ts), nil
		},
	})
}

func init() {
	register(Experiment{
		ID: "table1", Title: "Table 1: Domain names used by different Dropbox services",
		Run: func(ctx context.Context, s *Session) (*Result, error) { return Table1(), nil },
	})
	regTallies("table2", "Table 2: Datasets overview", Table2)
	regTallies("table3", "Table 3: Total Dropbox traffic in the datasets", Table3)
	register(Experiment{
		ID: "table4", Title: "Table 4: Campus 1 before and after the bundling deployment",
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			return table4(ctx, s.Seed, s.Scale.Campus1, fleet.Config{Shards: 1, Workers: s.Fleet.Workers, Observer: s.Fleet.Observer})
		},
	})
	regTallies("table5", "Table 5: User groups in Home 1 and Home 2", Table5)

	register(Experiment{
		ID: "figure1", Title: "Figure 1: The Dropbox protocol (testbed dissection)",
		Needs: Needs{Packet: true},
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			tb, err := s.Testbed(ctx)
			if err != nil {
				return nil, err
			}
			return tb.Figure1, nil
		},
	})
	regTallies("figure2", "Figure 2: Popularity of cloud storage in Home 1", Figure2)
	regTallies("figure3", "Figure 3: YouTube and Dropbox share in Campus 2", Figure3)
	regTallies("figure4", "Figure 4: Traffic share of Dropbox servers", Figure4)
	regTallies("figure5", "Figure 5: Number of contacted storage servers", Figure5)
	regTallies("figure6", "Figure 6: Minimum RTT of storage and control flows", Figure6)
	regTallies("figure7", "Figure 7: TCP flow sizes of file storage (Dropbox client)", Figure7)
	regTallies("figure8", "Figure 8: Estimated number of chunks per storage flow", Figure8)
	register(Experiment{
		ID: "figure9", Title: "Figure 9: Throughput of storage flows (packet-level lab)",
		Needs: Needs{Packet: true},
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			store, retr, err := s.PacketRecords(ctx)
			if err != nil {
				return nil, err
			}
			return Figure9(store, retr), nil
		},
	})
	register(Experiment{
		ID: "figure10", Title: "Figure 10: Minimum duration of flows by chunk group",
		Needs: Needs{Packet: true},
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			store, retr, err := s.PacketRecords(ctx)
			if err != nil {
				return nil, err
			}
			return Figure10(store, retr), nil
		},
	})
	regTallies("figure11", "Figure 11: Data volume stored and retrieved per household", Figure11)
	regTallies("figure12", "Figure 12: Devices per household (Dropbox client)", Figure12)
	regTallies("figure13", "Figure 13: Number of namespaces per device", Figure13)
	regTallies("figure14", "Figure 14: Distinct device start-ups per day", Figure14)
	regTallies("figure15", "Figure 15: Daily usage of Dropbox on weekdays", Figure15)
	regTallies("figure16", "Figure 16: Distribution of session durations", Figure16)
	regTallies("figure17", "Figure 17: Storage via the main Web interface", Figure17)
	regTallies("figure18", "Figure 18: Size of direct link downloads", Figure18)
	register(Experiment{
		ID: "figure19", Title: "Figure 19: Typical flows in storage operations (packet traces)",
		Needs: Needs{Packet: true},
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			tb, err := s.Testbed(ctx)
			if err != nil {
				return nil, err
			}
			return tb.Figure19, nil
		},
	})
	regTallies("figure20", "Figure 20: Bytes exchanged in storage flows (Campus 1) with f(u)", Figure20)
	regTallies("figure21", "Figure 21: Payload per estimated chunk (reverse direction)", Figure21)

	register(Experiment{
		ID: "fleet", Title: "Fleet campaign: streaming aggregates at a multiplied scale",
		Needs: Needs{OptIn: true},
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			rep, err := RunFleet(ctx, s.Seed, s.Scale.Times(s.FleetScale), s.Fleet)
			if err != nil {
				return nil, err
			}
			return rep.Result(), nil
		},
	})
	register(Experiment{
		ID: "whatif", Title: "What-if: one population under multiple capability profiles",
		Needs: Needs{OptIn: true},
		Run: func(ctx context.Context, s *Session) (*Result, error) {
			profiles := s.Profiles
			if len(profiles) == 0 {
				profiles = capability.Presets()
			}
			rep, err := WhatIfConfig{
				Seed:     s.Seed,
				VP:       workload.Campus1(s.Scale.Campus1),
				Fleet:    s.Fleet,
				Profiles: profiles,
			}.Run(ctx)
			if err != nil {
				return nil, err
			}
			return rep.Result(), nil
		},
	})

	registerBackend()
	registerScenario()
}
