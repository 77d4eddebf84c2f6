package workload

import (
	"sort"
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/simrand"
)

// FlashWindow is a bounded burst of activity: inside [Start, End) the
// cohort's session arrivals and synchronization event rates are multiplied
// by RateMult (1 = no effect).
type FlashWindow struct {
	Start, End time.Duration
	RateMult   float64
}

// Cohort is one behavioral slice of a vantage point population. Every
// override field is relative to the vantage point's calibrated baseline; a
// zero multiplier means "inherit" (treated as 1), nil profile/temporal
// fields inherit the VP's. A device owned by a cohort draws its sessions,
// sync events, file sizes and client capabilities through these overrides.
type Cohort struct {
	Name   string
	Weight float64

	// Caps, when set, swaps the client capability profile for the
	// cohort's devices (the per-cohort what-if hook); nil inherits the
	// vantage point's VPConfig.Caps.
	Caps *capability.Profile

	// Behavioral multipliers over the VP baseline (0 inherits = 1).
	FileSizeMult        float64 // sync-event file/delta sizes
	EditRateMult        float64 // store/retrieve events per online hour
	SessionRateMult     float64 // new sessions per day
	SessionLenMult      float64 // session duration
	NamespaceLambdaMult float64 // shared-namespace tail

	// AlwaysOn pins every device of the cohort online for the whole
	// campaign (CI bots, servers).
	AlwaysOn bool

	// NATChopFrac adds to the VP's per-session notification-chopping
	// probability (mobile/intermittent connectivity).
	NATChopFrac float64

	// Temporal pattern overrides (nil inherits the VP's).
	Diurnal *simrand.DiurnalProfile
	Week    *simrand.WeekdayFactor

	// Flash lists bounded high-activity windows.
	Flash []FlashWindow
}

func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

func (c *Cohort) fileSizeMult() float64        { return orOne(c.FileSizeMult) }
func (c *Cohort) editRateMult() float64        { return orOne(c.EditRateMult) }
func (c *Cohort) sessionRateMult() float64     { return orOne(c.SessionRateMult) }
func (c *Cohort) sessionLenMult() float64      { return orOne(c.SessionLenMult) }
func (c *Cohort) namespaceLambdaMult() float64 { return orOne(c.NamespaceLambdaMult) }

// flashMult returns the largest flash-window multiplier active at an
// instant (1 outside every window).
func (c *Cohort) flashMult(at time.Duration) float64 {
	m := 1.0
	for _, fw := range c.Flash {
		if at >= fw.Start && at < fw.End && fw.RateMult > m {
			m = fw.RateMult
		}
	}
	return m
}

// CohortPlan assigns devices to cohorts. Assignment hashes the device's
// stable host ID against a salt derived from the campaign seed — never the
// generator's random stream — so it is a pure function of (seed, device)
// and identical across any shard or worker count. A nil plan is the legacy
// single-population path.
type CohortPlan struct {
	cohorts []Cohort
	cum     []float64 // cumulative weights normalized to [0,1]
	salt    uint64
}

// NewCohortPlan builds a plan from a weighted cohort list. Weights are
// normalized; cohorts with non-positive weight are rejected by returning
// nil (validation happens in the scenario loader — this is the last line
// of defense).
func NewCohortPlan(salt uint64, cohorts []Cohort) *CohortPlan {
	if len(cohorts) == 0 {
		return nil
	}
	total := 0.0
	for _, c := range cohorts {
		if c.Weight <= 0 {
			return nil
		}
		total += c.Weight
	}
	p := &CohortPlan{
		cohorts: append([]Cohort(nil), cohorts...),
		cum:     make([]float64, len(cohorts)),
		salt:    salt,
	}
	acc := 0.0
	for i, c := range cohorts {
		acc += c.Weight / total
		p.cum[i] = acc
	}
	p.cum[len(p.cum)-1] = 1 // absorb float rounding
	return p
}

// cohortHashOffset/cohortHashPrime are FNV-1a constants; the assignment
// hash must stay frozen — changing it reshuffles every cohort population.
const (
	cohortHashOffset = 14695981039346656037
	cohortHashPrime  = 1099511628211
)

// Assign maps a device host ID to its cohort. The pick is a 53-bit uniform
// draw from FNV-1a(salt, host) against the cumulative weights.
func (p *CohortPlan) Assign(host uint64) *Cohort {
	h := uint64(cohortHashOffset)
	for _, w := range [2]uint64{p.salt, host} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * i)) & 0xff
			h *= cohortHashPrime
		}
	}
	u := float64(h>>11) / (1 << 53)
	i := sort.SearchFloat64s(p.cum, u)
	if i >= len(p.cohorts) {
		i = len(p.cohorts) - 1
	}
	return &p.cohorts[i]
}
