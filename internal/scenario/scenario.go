// Package scenario is the declarative experiment layer: a schema-versioned
// JSON spec describing a population as a weighted mix of behavioral
// cohorts (office workers, photo hoarders, CI bots, mobile clients,
// shared-team namespaces — each binding a capability profile, distribution
// overrides and multi-period temporal patterns) plus a backend timeline
// (arrival surges, region outages, staged capacity rollouts), compiled
// into the engine's existing VPConfig / fleet / backend configuration.
//
// The loader is strict — unknown fields, bad weights and foreign schema
// versions are errors, never warnings — so committed specs are a stable
// contract. Compilation is a pure function of (spec, seed): cohort
// assignment hashes stable device IDs against a seed-derived salt, so the
// compiled campaign's output is identical across any shard or worker
// count, and the empty spec compiles to the legacy flag-driven
// configuration bit for bit (pinned by TestEmptySpecMatchesLegacyGolden).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"insidedropbox/internal/backend"
	"insidedropbox/internal/capability"
	"insidedropbox/internal/fleet"
	"insidedropbox/internal/workload"
)

// Schema is the spec version this package reads and writes. Version gating
// is strict in both directions: a missing/zero schema and a newer schema
// are both load errors, so old engines never half-read new specs.
const Schema = 1

// Spec is one declarative scenario.
type Spec struct {
	// Schema must equal the package Schema constant.
	Schema int `json:"schema"`
	// Name identifies the scenario ([a-z0-9-]).
	Name string `json:"name"`
	// Description is free-form documentation.
	Description string `json:"description,omitempty"`

	// Base selects and scales the vantage point population.
	Base BaseSpec `json:"base,omitempty"`

	// Cohorts splits the population into weighted behavioral cohorts.
	// Empty keeps the single calibrated population.
	Cohorts []CohortSpec `json:"cohorts,omitempty"`

	// Backend adds a server-capacity replay with an optional timeline.
	Backend *BackendSpec `json:"backend,omitempty"`
}

// BaseSpec is the scenario's population: the type, JSON and rules of
// dropsim's population flags and of a campaign spec (fleet.PopulationSpec).
// Zero values inherit: an empty vp means home1, a zero scale
// experiments.DefaultScale's 0.08 Home 1 fraction, zero shards 1 and a
// zero seed the caller's. Cohorts can override Profile per cohort.
type BaseSpec = fleet.PopulationSpec

// CohortSpec is one behavioral cohort. Preset names a built-in behavior
// bundle (see Presets); explicitly set fields overlay the preset's. All
// multipliers are relative to the vantage point's calibrated baseline, 0
// meaning inherit.
type CohortSpec struct {
	Name   string  `json:"name"`
	Weight float64 `json:"weight"`
	Preset string  `json:"preset,omitempty"`

	Profile string `json:"profile,omitempty"`

	FileSizeMult        float64 `json:"file_size_mult,omitempty"`
	EditRateMult        float64 `json:"edit_rate_mult,omitempty"`
	SessionRateMult     float64 `json:"session_rate_mult,omitempty"`
	SessionLenMult      float64 `json:"session_len_mult,omitempty"`
	NamespaceLambdaMult float64 `json:"namespace_lambda_mult,omitempty"`
	AlwaysOn            bool    `json:"always_on,omitempty"`
	NATChopFrac         float64 `json:"nat_chop_frac,omitempty"`

	// Daily / Weekly name temporal profiles ("office", "home-evenings",
	// "campus-roaming", "flat" / "campus", "home", "flat"); empty inherits
	// the vantage point's.
	Daily  string `json:"daily,omitempty"`
	Weekly string `json:"weekly,omitempty"`

	// Flash lists bounded high-activity windows in campaign days.
	Flash []FlashSpec `json:"flash,omitempty"`
}

// FlashSpec is one bounded flash event: activity of the cohort is
// multiplied by Mult inside [Day, UntilDay) (fractional days allowed).
type FlashSpec struct {
	Day      float64 `json:"day"`
	UntilDay float64 `json:"until_day"`
	Mult     float64 `json:"mult"`
}

// BackendSpec adds the server-capacity model to the scenario.
type BackendSpec struct {
	// Preset is the deployment sizing ("infinite", "provisioned",
	// "scarce"); empty means provisioned.
	Preset string `json:"preset,omitempty"`
	// Timeline schedules time-varying events against the deployment.
	Timeline []TimelineSpec `json:"timeline,omitempty"`
}

// TimelineSpec is one scheduled backend event, in campaign days.
//
//   - "surge": arrival rate inside [day, until_day) is multiplied by mult
//     (capacity is still provisioned against the base load).
//   - "region-outage": the region's nodes go offline at day and return at
//     until_day.
//   - "capacity-scale": at day, matching nodes' concurrency becomes mult
//     times their configured value (class selects a service; empty class
//     scales every bounded node).
type TimelineSpec struct {
	Action   string  `json:"action"`
	Day      float64 `json:"day"`
	UntilDay float64 `json:"until_day,omitempty"`
	Mult     float64 `json:"mult,omitempty"`
	Region   int     `json:"region,omitempty"`
	Class    string  `json:"class,omitempty"`
}

// Timeline actions.
const (
	ActionSurge         = "surge"
	ActionRegionOutage  = "region-outage"
	ActionCapacityScale = "capacity-scale"
)

// Load reads and validates a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Parse decodes and validates one spec document. Decoding is strict:
// unknown fields anywhere in the document and trailing content after it
// are errors.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var sp Spec
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if err := checkTrailing(dec); err != nil {
		return nil, err
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return &sp, nil
}

func checkTrailing(dec *json.Decoder) error {
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("scenario: trailing content after spec document")
	}
	return nil
}

// nameOK reports whether a scenario or cohort name sticks to the
// [a-z0-9-] contract (names become telemetry counter and metric keys).
func nameOK(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if (r < 'a' || r > 'z') && (r < '0' || r > '9') && r != '-' {
			return false
		}
	}
	return true
}

// Validate checks the spec against the full contract; Parse and Load call
// it, so a non-nil *Spec from either is always valid.
func (s *Spec) Validate() error {
	_, _, err := s.resolve(0)
	return err
}

// resolve checks the spec and resolves its base population for a caller's
// seed: Validate and Compile in one pass.
func (s *Spec) resolve(seed int64) (pop fleet.Population, fc fleet.Config, err error) {
	switch {
	case s.Schema == 0:
		err = fmt.Errorf("scenario: missing schema version (want %d)", Schema)
	case s.Schema != Schema:
		err = fmt.Errorf("scenario: schema %d not supported (this engine reads %d)", s.Schema, Schema)
	case !nameOK(s.Name):
		err = fmt.Errorf("scenario: name %q must be non-empty [a-z0-9-]", s.Name)
	}
	if err != nil {
		return pop, fc, err
	}
	if pop, fc, err = s.population(seed).Resolve(); err != nil {
		return pop, fc, fmt.Errorf("scenario: base: %w", err)
	}
	if err = validateCohorts(s.Cohorts); err == nil && s.Backend != nil {
		err = s.Backend.validate()
	}
	return pop, fc, err
}

// weightTolerance bounds how far cohort weights may sum from 1.
const weightTolerance = 1e-6

func validateCohorts(cs []CohortSpec) error {
	if len(cs) == 0 {
		return nil
	}
	seen := make(map[string]bool, len(cs))
	total := 0.0
	for i, c := range cs {
		if !nameOK(c.Name) {
			return fmt.Errorf("scenario: cohort %d name %q must be non-empty [a-z0-9-]", i, c.Name)
		}
		if seen[c.Name] {
			return fmt.Errorf("scenario: duplicate cohort name %q", c.Name)
		}
		seen[c.Name] = true
		if c.Weight <= 0 {
			return fmt.Errorf("scenario: cohort %q weight %v must be positive", c.Name, c.Weight)
		}
		total += c.Weight
		if err := c.validate(); err != nil {
			return err
		}
	}
	if d := total - 1; d > weightTolerance || d < -weightTolerance {
		return fmt.Errorf("scenario: cohort weights sum to %v, want 1 (normalize the spec)", total)
	}
	return nil
}

func (c CohortSpec) validate() error {
	if c.Preset != "" {
		if _, ok := presetCohort(c.Preset); !ok {
			return fmt.Errorf("scenario: cohort %q: unknown preset %q (want one of %s)",
				c.Name, c.Preset, strings.Join(Presets(), ", "))
		}
	}
	if c.Profile != "" {
		if _, ok := capability.ByName(c.Profile); !ok {
			return fmt.Errorf("scenario: cohort %q: unknown capability profile %q (want one of %s)",
				c.Name, c.Profile, strings.Join(capability.Names(), ", "))
		}
	}
	for _, m := range []struct {
		name string
		v    float64
	}{
		{"file_size_mult", c.FileSizeMult},
		{"edit_rate_mult", c.EditRateMult},
		{"session_rate_mult", c.SessionRateMult},
		{"session_len_mult", c.SessionLenMult},
		{"namespace_lambda_mult", c.NamespaceLambdaMult},
	} {
		if m.v < 0 || m.v > 1000 {
			return fmt.Errorf("scenario: cohort %q: %s %v outside (0, 1000]", c.Name, m.name, m.v)
		}
	}
	if c.NATChopFrac < 0 || c.NATChopFrac > 1 {
		return fmt.Errorf("scenario: cohort %q: nat_chop_frac %v outside [0, 1]", c.Name, c.NATChopFrac)
	}
	if c.Daily != "" {
		if _, ok := dailyProfile(c.Daily); !ok {
			return fmt.Errorf("scenario: cohort %q: unknown daily profile %q (want office, home-evenings, campus-roaming, flat)", c.Name, c.Daily)
		}
	}
	if c.Weekly != "" {
		if _, ok := weeklyProfile(c.Weekly); !ok {
			return fmt.Errorf("scenario: cohort %q: unknown weekly profile %q (want campus, home, flat)", c.Name, c.Weekly)
		}
	}
	for _, f := range c.Flash {
		if f.Day < 0 || f.UntilDay > workload.CampaignDays || f.UntilDay <= f.Day {
			return fmt.Errorf("scenario: cohort %q: flash window [%v, %v) outside [0, %d) or empty",
				c.Name, f.Day, f.UntilDay, workload.CampaignDays)
		}
		if f.Mult <= 0 {
			return fmt.Errorf("scenario: cohort %q: flash mult %v must be positive", c.Name, f.Mult)
		}
	}
	return nil
}

func (b *BackendSpec) validate() error {
	if b.Preset != "" {
		ok := false
		for _, p := range backend.Presets() {
			if b.Preset == p {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("scenario: unknown backend preset %q (want one of %s)",
				b.Preset, strings.Join(backend.Presets(), ", "))
		}
	}
	for i, te := range b.Timeline {
		if te.Day < 0 || te.Day > workload.CampaignDays {
			return fmt.Errorf("scenario: timeline event %d: day %v outside [0, %d]", i, te.Day, workload.CampaignDays)
		}
		if te.Region < 0 || te.Region > 255 {
			return fmt.Errorf("scenario: timeline event %d: region %d outside [0, 255]", i, te.Region)
		}
		switch te.Action {
		case ActionSurge:
			if te.UntilDay <= te.Day || te.UntilDay > workload.CampaignDays {
				return fmt.Errorf("scenario: surge window [%v, %v) outside [0, %d] or empty", te.Day, te.UntilDay, workload.CampaignDays)
			}
			if te.Mult <= 1 {
				return fmt.Errorf("scenario: surge mult %v must exceed 1", te.Mult)
			}
		case ActionRegionOutage:
			if te.UntilDay <= te.Day || te.UntilDay > workload.CampaignDays {
				return fmt.Errorf("scenario: region-outage window [%v, %v) outside [0, %d] or empty", te.Day, te.UntilDay, workload.CampaignDays)
			}
		case ActionCapacityScale:
			if te.Mult <= 0 {
				return fmt.Errorf("scenario: capacity-scale mult %v must be positive", te.Mult)
			}
			if _, ok := backendClass(te.Class); !ok {
				return fmt.Errorf("scenario: capacity-scale class %q unknown (want control, storage, notify or empty)", te.Class)
			}
		default:
			return fmt.Errorf("scenario: timeline event %d: unknown action %q (want %s, %s, %s)",
				i, te.Action, ActionSurge, ActionRegionOutage, ActionCapacityScale)
		}
	}
	return nil
}

// backendClass maps a spec class name; empty means "all classes" (ok with
// the zero Class).
func backendClass(name string) (backend.Class, bool) {
	switch name {
	case "":
		return backend.ClassControl, true
	case "control":
		return backend.ClassControl, true
	case "storage":
		return backend.ClassStorage, true
	case "notify":
		return backend.ClassNotify, true
	}
	return 0, false
}

// Summary renders a one-line human description (the -validate-scenario
// output).
func (s *Spec) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: schema %d", s.Name, s.Schema)
	fmt.Fprintf(&b, ", vp %s", s.population(0).VP)
	if len(s.Cohorts) > 0 {
		names := make([]string, len(s.Cohorts))
		for i, c := range s.Cohorts {
			names[i] = fmt.Sprintf("%s:%.2f", c.Name, c.Weight)
		}
		sort.Strings(names)
		fmt.Fprintf(&b, ", cohorts [%s]", strings.Join(names, " "))
	}
	if s.Backend != nil {
		preset := s.Backend.Preset
		if preset == "" {
			preset = backend.PresetProvisioned
		}
		fmt.Fprintf(&b, ", backend %s (%d timeline events)", preset, len(s.Backend.Timeline))
	}
	return b.String()
}
