// Package workload generates the synthetic populations that stand in for
// the four vantage points of the paper (Table 2): households and campus
// hosts, their devices, user-behaviour groups, diurnal session processes,
// file-synchronization events, web/API usage, and the competing cloud
// providers — everything needed to regenerate the campaign-scale tables and
// figures at flow level through the calibrated flowmodel.
//
// Parameter values are calibrated against the paper's published numbers;
// each field's comment cites the source.
//
// Client capabilities are pluggable: each vantage point carries, in
// VPConfig.Caps, the capability.Profile of the client the paper observed
// there (capability.DropboxV1252, or DropboxV140 for Campus 1's Jun/Jul
// dataset), and a counterfactual campaign replaces it with any other
// profile.
package workload

import (
	"time"

	"insidedropbox/internal/capability"
	"insidedropbox/internal/simrand"
)

// AccessKind is the access technology of a subscriber line.
type AccessKind int

// Access technologies of Table 2.
const (
	AccessWired AccessKind = iota
	AccessWireless
	AccessADSL
	AccessFTTH
)

// rates returns (up, down) bottleneck rates in bytes/second.
func (a AccessKind) rates() (up, down float64) {
	switch a {
	case AccessWired:
		return 12.5e6, 12.5e6
	case AccessWireless:
		return 2.5e6, 2.5e6
	case AccessADSL:
		return 128e3, 1e6
	default: // FTTH
		return 1.25e6, 1.25e6
	}
}

// GroupMix is the household behaviour mixture (Table 5).
type GroupMix struct {
	Occasional, UploadOnly, DownloadOnly, Heavy float64
}

// VPConfig describes one vantage point population.
type VPConfig struct {
	Name string
	// Days is the capture length (42 in the paper).
	Days int
	// TotalIPs is the (scaled) number of client addresses in the network.
	TotalIPs int
	// Scale notes the downscaling factor versus the paper's population,
	// for reporting extrapolated totals.
	Scale float64

	// Penetration of each provider as a fraction of TotalIPs (Fig. 2:
	// iCloud 11.1%, Dropbox 6.9%, SkyDrive 1.7% in Home 1).
	DropboxFrac, ICloudFrac, SkyDriveFrac, GDriveFrac, OtherCloudFrac float64

	// Access technology mixture.
	Access []AccessKind

	// RTTs from the probe to the two data-centers (Fig. 6 x-ranges).
	StorageRTT, ControlRTT time.Duration
	// ControlRTTSteps adds per-household route-change offsets (the <10 ms
	// steps of Campus 1 / Home 2 in Fig. 6).
	ControlRTTSteps bool

	// HasDNS disables FQDN labeling when false (Campus 2, Sec. 3.2).
	HasDNS bool

	// Diurnal/weekly shape (Fig. 15) and behaviour mixture (Table 5).
	Diurnal  simrand.DiurnalProfile
	Week     simrand.WeekdayFactor
	Holidays *simrand.HolidayCalendar
	Groups   GroupMix

	// SessionsPerDay is the per-device mean of new sessions (Fig. 14:
	// ~40% of home devices start a session daily).
	SessionsPerDay float64

	// P1Namespace is the fraction of devices with only the root namespace
	// (Fig. 13: 13% Campus 1, 28% Home 1); NamespaceLambda sets the tail.
	P1Namespace     float64
	NamespaceLambda float64

	// NATChoppedFrac is the per-session probability that network equipment
	// kills notification connections within a minute (Sec. 5.5); a quarter
	// of it applies device-permanently.
	NATChoppedFrac float64

	// WorkstationLike marks populations dominated by single always-used
	// machines (Campus 1): one device per IP, office-hour sessions.
	WorkstationLike bool

	// Caps is the client capability profile of the population, together
	// with the storage servers' initial window it was deployed with
	// (client releases and server tuning deployed jointly, Table 4). The
	// vantage point constructors set the client the paper observed; the
	// what-if lab and -profile replace it.
	Caps capability.Profile

	// Cohorts, when set, splits the Dropbox population into weighted
	// behavioral cohorts (see CohortPlan): each device is deterministically
	// assigned by its host ID and generated under its cohort's overrides.
	// Nil reproduces the single-population stream bit for bit.
	Cohorts *CohortPlan

	// AbnormalUploader plants the Home 2 device that submitted single
	// 4 MB chunks in consecutive TCP connections for days (Sec. 4.3.1).
	AbnormalUploader bool

	// OutageDays lists whole days with probe outages (Fig. 2: Apr 21).
	OutageDays []int

	// DailyBackgroundGB is the non-cloud traffic volume per day (sets the
	// denominators of Table 2 and Fig. 3); YouTubeShare carves YouTube out
	// of it (Campus 2: Dropbox ≈ one third of YouTube, 4% of total).
	DailyBackgroundGB float64
	YouTubeShare      float64
}

// campaignStart aligns day 0 with Saturday March 24, 2012 (the capture
// start): day-of-week index 5 relative to a Monday-based week.
const campaignStartWeekday = 5

// holidays2012 marks the Easter (Apr 8-9 = days 15,16), the Italian
// Liberation day + May 1 window (Apr 25 = day 32, May 1 = day 38) visible
// in Figs. 3 and 14.
func holidays2012() *simrand.HolidayCalendar {
	h := simrand.NewHolidayCalendar()
	h.MarkRange(15, 16, 0.45)
	h.Mark(32, 0.5)
	h.Mark(38, 0.5)
	return h
}

// Campus1 models the wired research/administrative department (400 IPs).
// scale is the fraction of it to simulate, as in every vantage point
// constructor: 1.0 is Table 2's address count, 0.08 is 8 % (at least 8).
func Campus1(scale float64) VPConfig {
	return VPConfig{
		Name: "campus1", Days: 42,
		TotalIPs: scaled(400, scale), Scale: scale,
		DropboxFrac: 0.45, ICloudFrac: 0.20, SkyDriveFrac: 0.02,
		GDriveFrac: 0.02, OtherCloudFrac: 0.02,
		Access:     []AccessKind{AccessWired},
		StorageRTT: 88 * time.Millisecond, ControlRTT: 152 * time.Millisecond,
		ControlRTTSteps: true,
		HasDNS:          true,
		Diurnal:         simrand.OfficeHours(), Week: simrand.CampusWeek(),
		Holidays:          holidays2012(),
		Groups:            GroupMix{Occasional: 0.22, UploadOnly: 0.06, DownloadOnly: 0.27, Heavy: 0.45},
		SessionsPerDay:    0.9,
		P1Namespace:       0.13,
		NamespaceLambda:   3.3,
		WorkstationLike:   true,
		Caps:              capability.DropboxV1252(),
		DailyBackgroundGB: 65, YouTubeShare: 0.10,
	}
}

// VantagePoints lists the names ByName resolves.
func VantagePoints() []string {
	return []string{"campus1", "campus1-junjul", "campus2", "home1", "home2"}
}

// ByName resolves a vantage point name and population scale (a fraction
// of the paper's population, 1.0 being Table 2's) into its calibrated
// config; ok is false for a name VantagePoints does not list.
func ByName(name string, scale float64) (cfg VPConfig, ok bool) {
	switch name {
	case "campus1":
		return Campus1(scale), true
	case "campus1-junjul":
		return Campus1JunJul(scale), true
	case "campus2":
		return Campus2(scale), true
	case "home1":
		return Home1(scale), true
	case "home2":
		return Home2(scale), true
	}
	return VPConfig{}, false
}

// Campus1JunJul is the second Campus 1 dataset (Table 4): same population,
// Dropbox 1.4.0 deployed and server initial window raised.
func Campus1JunJul(scale float64) VPConfig {
	cfg := Campus1(scale)
	cfg.Name = "campus1-junjul"
	cfg.Caps = capability.DropboxV140()
	return cfg
}

// Campus2 models the whole-campus border (wireless APs + student houses,
// 2528 IPs), with no DNS visibility.
func Campus2(scale float64) VPConfig {
	return VPConfig{
		Name: "campus2", Days: 42,
		TotalIPs: scaled(2528, scale), Scale: scale,
		DropboxFrac: 0.28, ICloudFrac: 0.18, SkyDriveFrac: 0.02,
		GDriveFrac: 0.02, OtherCloudFrac: 0.02,
		Access:     []AccessKind{AccessWireless, AccessWireless, AccessWired},
		StorageRTT: 96 * time.Millisecond, ControlRTT: 168 * time.Millisecond,
		HasDNS:  false,
		Diurnal: simrand.CampusRoaming(), Week: simrand.CampusWeek(),
		Holidays:          holidays2012(),
		Groups:            GroupMix{Occasional: 0.26, UploadOnly: 0.06, DownloadOnly: 0.28, Heavy: 0.40},
		SessionsPerDay:    1.3,
		P1Namespace:       0.16,
		NamespaceLambda:   3.0,
		NATChoppedFrac:    0.002,
		Caps:              capability.DropboxV1252(),
		DailyBackgroundGB: 440, YouTubeShare: 0.125,
	}
}

// Home1 models the FTTH/ADSL POP (18785 IPs) with static addressing.
func Home1(scale float64) VPConfig {
	return VPConfig{
		Name: "home1", Days: 42,
		TotalIPs: scaled(18785, scale), Scale: scale,
		DropboxFrac: 0.069, ICloudFrac: 0.111, SkyDriveFrac: 0.017,
		GDriveFrac: 0.012, OtherCloudFrac: 0.01,
		Access:     []AccessKind{AccessADSL, AccessADSL, AccessFTTH},
		StorageRTT: 100 * time.Millisecond, ControlRTT: 180 * time.Millisecond,
		HasDNS:  true,
		Diurnal: simrand.HomeEvenings(), Week: simrand.HomeWeek(),
		Holidays:          holidays2012(),
		Groups:            GroupMix{Occasional: 0.31, UploadOnly: 0.06, DownloadOnly: 0.26, Heavy: 0.37},
		SessionsPerDay:    0.6,
		P1Namespace:       0.28,
		NamespaceLambda:   2.2,
		NATChoppedFrac:    0.006,
		Caps:              capability.DropboxV1252(),
		OutageDays:        []int{28}, // April 21 probe outage
		DailyBackgroundGB: 3700, YouTubeShare: 0.11,
	}
}

// Home2 models the ADSL POP (13723 IPs), including the abnormal uploader.
func Home2(scale float64) VPConfig {
	return VPConfig{
		Name: "home2", Days: 42,
		TotalIPs: scaled(13723, scale), Scale: scale,
		DropboxFrac: 0.062, ICloudFrac: 0.10, SkyDriveFrac: 0.015,
		GDriveFrac: 0.012, OtherCloudFrac: 0.01,
		Access:     []AccessKind{AccessADSL},
		StorageRTT: 108 * time.Millisecond, ControlRTT: 200 * time.Millisecond,
		ControlRTTSteps: true,
		HasDNS:          true,
		Diurnal:         simrand.HomeEvenings(), Week: simrand.HomeWeek(),
		Holidays:          holidays2012(),
		Groups:            GroupMix{Occasional: 0.32, UploadOnly: 0.07, DownloadOnly: 0.28, Heavy: 0.33},
		SessionsPerDay:    0.6,
		P1Namespace:       0.30,
		NamespaceLambda:   2.0,
		NATChoppedFrac:    0.007,
		Caps:              capability.DropboxV1252(),
		AbnormalUploader:  true,
		DailyBackgroundGB: 5800, YouTubeShare: 0.11,
	}
}

// scaled is frac of n addresses, at least 8. A count past MaxSubscribers
// saturates just above it, where CheckScale refuses it, instead of
// overflowing int.
func scaled(n int, frac float64) int {
	v := float64(n) * frac
	if !(v >= 8) {
		return 8
	}
	return int(min(v, MaxSubscribers+1))
}
