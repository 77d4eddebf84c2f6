package scenario

import (
	"cmp"
	"fmt"
	"time"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/simrand"
	"insidedropbox/internal/workload"
)

// Compiled is a spec lowered onto the engine's existing configuration
// surfaces. Compilation is a pure function of (spec, seed): no clock, no
// RNG draws, no environment — the same inputs compile to the same
// Compiled on every host, which is what makes committed specs replayable
// experiment definitions.
type Compiled struct {
	// Spec is the validated source document.
	Spec *Spec
	// VP is the vantage point configuration, cohort plan attached.
	VP workload.VPConfig
	// Seed is the effective campaign seed (spec base.seed wins over the
	// caller's).
	Seed int64
	// Fleet shards the run (spec base.shards).
	Fleet fleet.Config
	// Backend is nil unless the spec has a backend section.
	Backend *CompiledBackend
}

// CompiledBackend is the spec's backend section lowered onto the
// discrete-event model: a sizing preset, in-queue timeline events,
// arrival surges (applied to the request set before simulation, since
// capacity is provisioned against the base load), and the report windows
// that make each timeline entry's effect measurable.
type CompiledBackend struct {
	Preset   string
	Timeline []backend.TimelineEvent
	Surges   []Surge
	Windows  []backend.Window
}

// Surge is one arrival-rate amplification window.
type Surge struct {
	Start, End time.Duration
	Mult       float64
}

// cohortSalt derives the cohort-assignment salt. It depends on the seed
// only — never on worker or shard count — so a device's cohort is a pure
// function of (seed, device host ID): determinism-contract point 15.
func cohortSalt(seed int64) uint64 {
	return uint64(simrand.DeriveSeed(seed, "scenario/cohorts"))
}

// day converts a spec's fractional campaign-day offset to a duration.
func day(d float64) time.Duration {
	return time.Duration(d * 24 * float64(time.Hour))
}

// population is the spec's base section with the scenario defaults filled
// in for a caller's seed: the population Compile resolves.
func (s *Spec) population(seed int64) BaseSpec {
	p := s.Base
	p.VP = cmp.Or(p.VP, "home1")
	p.Scale = cmp.Or(p.Scale, 0.08) // experiments.DefaultScale's Home 1 fraction
	p.Seed = cmp.Or(p.Seed, seed)
	return p
}

// Compile lowers a spec onto the engine configuration. seed is the
// caller's campaign seed; a non-zero base.seed in the spec overrides it.
// The empty spec (no cohorts, no backend, zero base) compiles to exactly
// the configuration the legacy flag path builds, bit for bit — pinned by
// TestEmptySpecMatchesLegacyGolden.
func Compile(sp *Spec, seed int64) (*Compiled, error) {
	pop, fc, err := sp.resolve(seed)
	if err != nil {
		return nil, err
	}
	vp := pop.VP
	if len(sp.Cohorts) > 0 {
		cohorts := make([]workload.Cohort, len(sp.Cohorts))
		for i, cs := range sp.Cohorts {
			c, err := compileCohort(cs)
			if err != nil {
				return nil, err
			}
			cohorts[i] = c
		}
		vp.Cohorts = workload.NewCohortPlan(cohortSalt(pop.Seed), cohorts)
	}
	c := &Compiled{Spec: sp, VP: vp, Seed: pop.Seed, Fleet: fc}
	if sp.Backend != nil {
		be, err := compileBackend(sp.Backend)
		if err != nil {
			return nil, err
		}
		c.Backend = be
	}
	return c, nil
}

// compileCohort lowers one cohort spec (preset overlay applied) onto the
// workload generator's cohort parameters.
func compileCohort(cs CohortSpec) (workload.Cohort, error) {
	cs = cs.overlay()
	c := workload.Cohort{
		Name:                cs.Name,
		Weight:              cs.Weight,
		FileSizeMult:        cs.FileSizeMult,
		EditRateMult:        cs.EditRateMult,
		SessionRateMult:     cs.SessionRateMult,
		SessionLenMult:      cs.SessionLenMult,
		NamespaceLambdaMult: cs.NamespaceLambdaMult,
		AlwaysOn:            cs.AlwaysOn,
		NATChopFrac:         cs.NATChopFrac,
	}
	if cs.Profile != "" {
		p, ok := capability.ByName(cs.Profile)
		if !ok {
			return c, fmt.Errorf("scenario: cohort %q: unknown capability profile %q", cs.Name, cs.Profile)
		}
		c.Caps = &p
	}
	if cs.Daily != "" {
		d, ok := dailyProfile(cs.Daily)
		if !ok {
			return c, fmt.Errorf("scenario: cohort %q: unknown daily profile %q", cs.Name, cs.Daily)
		}
		c.Diurnal = &d
	}
	if cs.Weekly != "" {
		w, ok := weeklyProfile(cs.Weekly)
		if !ok {
			return c, fmt.Errorf("scenario: cohort %q: unknown weekly profile %q", cs.Name, cs.Weekly)
		}
		c.Week = &w
	}
	for _, f := range cs.Flash {
		c.Flash = append(c.Flash, workload.FlashWindow{
			Start:    day(f.Day),
			End:      day(f.UntilDay),
			RateMult: f.Mult,
		})
	}
	return c, nil
}

// compileBackend lowers the backend section: surges stay request-set
// transformations (capacity is provisioned against the base load, so a
// flash crowd hits a deployment sized without knowledge of it), outages
// and rollouts become in-queue timeline events, and every entry gets a
// named report window covering its effect.
func compileBackend(bs *BackendSpec) (*CompiledBackend, error) {
	preset := bs.Preset
	if preset == "" {
		preset = backend.PresetProvisioned
	}
	be := &CompiledBackend{Preset: preset}
	for i, te := range bs.Timeline {
		start, end := day(te.Day), day(te.UntilDay)
		switch te.Action {
		case ActionSurge:
			be.Surges = append(be.Surges, Surge{Start: start, End: end, Mult: te.Mult})
			be.Windows = append(be.Windows, backend.Window{
				Name: fmt.Sprintf("surge-%d", i), Start: start, End: end,
			})
		case ActionRegionOutage:
			be.Timeline = append(be.Timeline,
				backend.TimelineEvent{At: start, Action: backend.ActionRegionDown, Region: uint8(te.Region)},
				backend.TimelineEvent{At: end, Action: backend.ActionRegionUp, Region: uint8(te.Region)},
			)
			be.Windows = append(be.Windows, backend.Window{
				Name: fmt.Sprintf("outage-%d", i), Start: start, End: end,
			})
		case ActionCapacityScale:
			cls, ok := backendClass(te.Class)
			if !ok {
				return nil, fmt.Errorf("scenario: capacity-scale class %q unknown", te.Class)
			}
			be.Timeline = append(be.Timeline, backend.TimelineEvent{
				At:         start,
				Action:     backend.ActionScaleCapacity,
				Class:      cls,
				AllClasses: te.Class == "",
				Factor:     te.Mult,
			})
			be.Windows = append(be.Windows, backend.Window{
				Name: fmt.Sprintf("scale-%d", i), Start: start, End: day(vpDays),
			})
		default:
			return nil, fmt.Errorf("scenario: unknown timeline action %q", te.Action)
		}
	}
	return be, nil
}

// Config builds the backend configuration for an arrival set: the preset
// sized from the BASE arrivals (pass pre-surge requests — that is the
// point of a flash-crowd scenario), with the compiled timeline and report
// windows attached.
func (b *CompiledBackend) Config(baseReqs []backend.Request) (backend.Config, error) {
	cfg, err := backend.PresetConfig(b.Preset, baseReqs)
	if err != nil {
		return cfg, err
	}
	cfg.Timeline = b.Timeline
	cfg.Windows = b.Windows
	return cfg, nil
}

// ApplySurges amplifies the arrival set through every surge window in
// order, deterministically (backend.AmplifyWindow); the input slice is
// not modified. With no surges it returns the input unchanged.
func (b *CompiledBackend) ApplySurges(reqs []backend.Request) []backend.Request {
	for _, s := range b.Surges {
		reqs = backend.AmplifyWindow(reqs, s.Start, s.End, s.Mult)
	}
	return reqs
}
