package fleet

import (
	"cmp"
	"fmt"
	"strings"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/workload"
)

// PopulationSpec names one run's population the way the paper names a
// dataset (Table 2): a vantage point and a fraction of its population,
// plus seed, shards and an optional capability profile. dropsim's population flags, campaign.Spec and a scenario's base
// section are all checked and resolved by Resolve, under one rule set.
type PopulationSpec struct {
	// VP names the vantage point (workload.VantagePoints).
	VP string `json:"vp,omitempty"`
	// Scale is the fraction of the paper's population, 1.0 being Table
	// 2's address count: > 0, and at most workload.MaxSubscribers
	// subscribers (workload.CheckScale).
	Scale float64 `json:"scale,omitempty"`
	Seed  int64   `json:"seed,omitempty"`
	// Shards is in [1, workload.MaxShards], 0 meaning 1.
	Shards int `json:"shards,omitempty"`
	// Profile, when set, names the capability preset that replaces the
	// vantage point's calibrated client.
	Profile string `json:"profile,omitempty"`
}

// Resolve checks the spec and returns the population and the fleet
// configuration (Shards, zero read as 1) it names.
func (s PopulationSpec) Resolve() (Population, Config, error) {
	vp, ok := workload.ByName(s.VP, s.Scale)
	err := cmp.Or(workload.CheckScale(vp), CheckShards(s.Shards))
	switch {
	case !ok:
		err = fmt.Errorf("unknown vantage point %q (valid: %s)", s.VP, strings.Join(workload.VantagePoints(), ", "))
	case err == nil && s.Profile != "":
		if vp.Caps, ok = capability.ByName(s.Profile); !ok {
			err = fmt.Errorf("unknown capability profile %q (valid: %s)", s.Profile, strings.Join(capability.Names(), ", "))
		}
	}
	if err != nil {
		return Population{}, Config{}, err
	}
	return Population{VP: vp, Seed: s.Seed}, Config{Shards: max(s.Shards, 1)}, nil
}

// CheckShards is the one shard-count rule: a population, a campaign and
// an experiment run all take shards in [1, workload.MaxShards], 0 meaning
// 1.
func CheckShards(n int) error {
	if n < 0 || n > workload.MaxShards {
		return fmt.Errorf("shards must be in [1, %d], 0 meaning 1 (got %d: negative or exceeds the maximum)",
			workload.MaxShards, n)
	}
	return nil
}

// CheckWorkers is the one worker-count rule: a shard pool, a campaign's
// Workers and an experiment run all take workers >= 0, 0 meaning GOMAXPROCS.
func CheckWorkers(n int) error {
	if n < 0 {
		return fmt.Errorf("workers must be >= 0, 0 meaning GOMAXPROCS (got %d)", n)
	}
	return nil
}
