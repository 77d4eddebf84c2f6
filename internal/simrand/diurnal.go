package simrand

import (
	"math"
	"time"
)

// DiurnalProfile is a 24-slot intensity profile (one slot per hour of day)
// used to modulate arrival processes. Values are relative intensities; the
// profile is normalized so the slots sum to 1.
type DiurnalProfile [24]float64

// Normalize scales the profile so its slots sum to 1. A zero profile becomes
// uniform.
func (p DiurnalProfile) Normalize() DiurnalProfile {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum <= 0 {
		for i := range p {
			p[i] = 1.0 / 24
		}
		return p
	}
	for i := range p {
		p[i] /= sum
	}
	return p
}

// At returns the normalized intensity for the hour-of-day containing t,
// where t is an offset from local midnight of day 0.
func (p DiurnalProfile) At(t time.Duration) float64 {
	h := int(t/time.Hour) % 24
	if h < 0 {
		h += 24
	}
	return p[h]
}

// OfficeHours returns a profile concentrated in 8h-19h with a lunch dip,
// modeling the wired-workstation population of Campus 1.
func OfficeHours() DiurnalProfile {
	var p DiurnalProfile
	for h := 0; h < 24; h++ {
		switch {
		case h >= 9 && h <= 12:
			p[h] = 1.0
		case h == 13:
			p[h] = 0.7 // lunch dip
		case h >= 14 && h <= 17:
			p[h] = 0.95
		case h == 8 || h == 18:
			p[h] = 0.5
		case h == 7 || h == 19:
			p[h] = 0.15
		case h >= 20 && h <= 22:
			p[h] = 0.05
		default:
			p[h] = 0.01
		}
	}
	return p.Normalize()
}

// CampusRoaming returns a flatter daytime profile modeling the wireless and
// student-house population of Campus 2 (transit through access points all
// day, activity stretching into the night).
func CampusRoaming() DiurnalProfile {
	var p DiurnalProfile
	for h := 0; h < 24; h++ {
		switch {
		case h >= 9 && h <= 18:
			p[h] = 0.9
		case h >= 19 && h <= 23:
			p[h] = 0.55
		case h == 8:
			p[h] = 0.45
		case h == 7:
			p[h] = 0.2
		case h == 0 || h == 1:
			p[h] = 0.2
		default:
			p[h] = 0.05
		}
	}
	return p.Normalize()
}

// HomeEvenings returns the residential profile: a small morning bump, low
// daytime activity, and a strong evening peak, as in the Home 1/2 curves of
// Fig. 15.
func HomeEvenings() DiurnalProfile {
	var p DiurnalProfile
	for h := 0; h < 24; h++ {
		switch {
		case h >= 7 && h <= 9:
			p[h] = 0.55 // morning bump before work
		case h >= 10 && h <= 16:
			p[h] = 0.3
		case h >= 17 && h <= 19:
			p[h] = 0.7
		case h >= 20 && h <= 22:
			p[h] = 1.0 // evening peak
		case h == 23:
			p[h] = 0.6
		case h == 0:
			p[h] = 0.3
		default:
			p[h] = 0.08
		}
	}
	return p.Normalize()
}

// SampleHour draws an hour-of-day according to the profile.
func (p DiurnalProfile) SampleHour(src *Source) int {
	u := src.Float64()
	cum := 0.0
	for h, v := range p {
		cum += v
		if u < cum {
			return h
		}
	}
	return 23
}

// SampleTimeOfDay draws an instant within the day: the hour from the profile
// and a uniform offset within that hour.
func (p DiurnalProfile) SampleTimeOfDay(src *Source) time.Duration {
	h := p.SampleHour(src)
	return time.Duration(h)*time.Hour + time.Duration(src.Float64()*float64(time.Hour))
}

// WeekdayFactor modulates intensity by day-of-week (0 = Monday). Campus
// traffic nearly vanishes on weekends; home traffic does not.
type WeekdayFactor [7]float64

// CampusWeek returns the strong weekday seasonality of campus networks.
func CampusWeek() WeekdayFactor { return WeekdayFactor{1, 1, 1, 0.97, 0.9, 0.18, 0.12} }

// HomeWeek returns the nearly flat weekly profile of home networks.
func HomeWeek() WeekdayFactor { return WeekdayFactor{1, 0.98, 0.97, 0.98, 1, 0.95, 0.9} }

// At returns the factor for the day containing t (day 0 = Monday).
func (w WeekdayFactor) At(t time.Duration) float64 {
	d := int(t/(24*time.Hour)) % 7
	if d < 0 {
		d += 7
	}
	return w[d]
}

// HolidayCalendar marks whole days (by index from the campaign start) as
// holidays with a damping factor, reproducing the April/May holiday dips
// visible in Figs. 3 and 14.
type HolidayCalendar struct {
	factor map[int]float64
}

// NewHolidayCalendar returns an empty calendar.
func NewHolidayCalendar() *HolidayCalendar {
	return &HolidayCalendar{factor: make(map[int]float64)}
}

// Mark sets the damping factor for a day index (0-based from campaign start).
func (h *HolidayCalendar) Mark(day int, factor float64) { h.factor[day] = factor }

// MarkRange marks [from,to] inclusive.
func (h *HolidayCalendar) MarkRange(from, to int, factor float64) {
	for d := from; d <= to; d++ {
		h.Mark(d, factor)
	}
}

// At returns the factor for the day containing t (1.0 when unmarked).
func (h *HolidayCalendar) At(t time.Duration) float64 {
	if h == nil {
		return 1
	}
	d := int(t / (24 * time.Hour))
	if f, ok := h.factor[d]; ok {
		return f
	}
	return 1
}

// ThinnedPoissonProcess generates event times on [0, horizon) for a
// non-homogeneous Poisson process whose rate is baseRate/day modulated by the
// diurnal profile, weekday factors and holiday calendar. It uses thinning
// against the profile's peak intensity.
func ThinnedPoissonProcess(src *Source, horizon time.Duration, perDay float64,
	prof DiurnalProfile, week WeekdayFactor, holidays *HolidayCalendar) []time.Duration {

	peak := 0.0
	for _, v := range prof {
		if v > peak {
			peak = v
		}
	}
	if peak <= 0 || perDay <= 0 {
		return nil
	}
	// Hourly peak rate: events/day * peak share-per-hour.
	peakPerHour := perDay * peak
	var out []time.Duration
	t := time.Duration(0)
	for t < horizon {
		// Exponential gap at the peak rate.
		gap := time.Duration(src.Exponential(1.0/peakPerHour) * float64(time.Hour))
		if gap <= 0 {
			gap = time.Nanosecond
		}
		t += gap
		if t >= horizon {
			break
		}
		accept := prof.At(t) / peak * week.At(t) * holidays.At(t)
		if src.Float64() < accept {
			out = append(out, t)
		}
	}
	return out
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f].
func (s *Source) Jitter(d time.Duration, f float64) time.Duration {
	if f <= 0 {
		return d
	}
	scale := 1 + s.Uniform(-f, f)
	v := float64(d) * scale
	if v < 0 {
		v = 0
	}
	return time.Duration(math.Round(v))
}
