package backend

import (
	"fmt"
	"math"
)

// Preset names, in help order. A preset provisions a deployment relative
// to the measured offered load of the arrival set it will face, so the
// same name stays meaningful from a 2% test population to a million-device
// campaign:
//
//   - "infinite": one infinitely fast, unbounded node per class — the
//     null backend. Zero delay, zero drops, golden streams unchanged
//     (determinism-contract point 14).
//   - "provisioned": a healthy deployment with ~2x headroom per class,
//     bounded concurrency and generous FIFO queues, least-loaded routing.
//   - "scarce": an under-provisioned deployment at ~0.6x the offered
//     load with short queues and shed admission — the overload regime.
const (
	PresetInfinite    = "infinite"
	PresetProvisioned = "provisioned"
	PresetScarce      = "scarce"
)

// Presets lists the preset names in help order.
func Presets() []string {
	return []string{PresetInfinite, PresetProvisioned, PresetScarce}
}

// presetShape sizes one class's pool within a preset. Concurrency is
// provisioned from the offered load, not listed here.
type presetShape struct {
	nodes      int
	regions    int // node i gets Region i % regions
	queueDepth int
}

// slotRate is the fixed per-slot service rate of each class — what one
// server slot can push, independent of how many slots a deployment has: a
// storage slot streams one transfer at 4 MB/s (2012-era per-connection
// server throughput), a control slot turns an operation in 10 ms, a
// notification slot handles a long-poll hit in 2 ms. Presets scale slot
// COUNT to the offered load at these rates, the way real deployments add
// servers rather than faster ones.
var slotRate = [numClasses]float64{
	ClassControl: 100,
	ClassStorage: 4e6,
	ClassNotify:  500,
}

// PresetConfig builds the named preset against an arrival set. Per-class
// slot counts are derived from OfferedRate(reqs): each class gets enough
// slots (at the class's fixed slotRate) for the offered load times the
// preset's headroom factor, floored at one slot per node — so the
// provisioned knee (SaturationPoint) is at least the headroom factor, and
// exactly it once the population is large enough to need every node.
func PresetConfig(name string, reqs []Request) (Config, error) {
	switch name {
	case PresetInfinite:
		return Config{
			Admission: AdmitQueue,
			Routing:   RouteRoundRobin,
			Nodes: []NodeConfig{
				{Name: "control-0", Class: ClassControl},
				{Name: "storage-0", Class: ClassStorage},
				{Name: "notify-0", Class: ClassNotify},
			},
		}, nil
	case PresetProvisioned:
		return provision(reqs, 2.0, AdmitQueue, RouteLeastLoaded, [numClasses]presetShape{
			ClassControl: {nodes: 4, regions: 1, queueDepth: 1024},
			ClassStorage: {nodes: 8, regions: 4, queueDepth: 1024},
			ClassNotify:  {nodes: 2, regions: 1, queueDepth: 4096},
		}), nil
	case PresetScarce:
		return provision(reqs, 0.6, AdmitShed, RouteLeastLoaded, [numClasses]presetShape{
			ClassControl: {nodes: 2, regions: 1, queueDepth: 128},
			ClassStorage: {nodes: 4, regions: 2, queueDepth: 128},
			ClassNotify:  {nodes: 1, regions: 1, queueDepth: 512},
		}), nil
	}
	return Config{}, fmt.Errorf("backend: unknown preset %q (want %v)", name, Presets())
}

func provision(reqs []Request, headroom float64, adm AdmissionPolicy, rt RoutingPolicy, shapes [numClasses]presetShape) Config {
	offered := OfferedRate(reqs)
	cfg := Config{Admission: adm, Routing: rt}
	for c := Class(0); c < numClasses; c++ {
		sh := shapes[c]
		// Slots per node so that nodes x concurrency x slotRate covers
		// headroom x offered, at least one slot per node.
		conc := int(math.Ceil(headroom * offered[c] / (slotRate[c] * float64(sh.nodes))))
		if conc < 1 {
			conc = 1
		}
		for i := 0; i < sh.nodes; i++ {
			cfg.Nodes = append(cfg.Nodes, NodeConfig{
				Name:        fmt.Sprintf("%s-%d", c, i),
				Class:       c,
				Region:      uint8(i % sh.regions),
				ServiceRate: slotRate[c],
				Concurrency: conc,
				QueueDepth:  sh.queueDepth,
			})
		}
	}
	return cfg
}

// Capacity sums a config's aggregate service capacity per class, in work
// units per second. A class containing any infinitely fast node reports
// +Inf via the ok=false convention: bounded is false when the class has
// unlimited capacity.
func (c Config) Capacity() (perClass [numClasses]float64, bounded [numClasses]bool) {
	for i := range bounded {
		bounded[i] = true
	}
	seen := [numClasses]bool{}
	for _, n := range c.Nodes {
		seen[n.Class] = true
		if cap := n.capacity(); cap > 0 {
			perClass[n.Class] += cap
		} else {
			bounded[n.Class] = false
		}
	}
	for i, s := range seen {
		if !s {
			bounded[i] = false
			perClass[i] = 0
		}
	}
	return perClass, bounded
}

// SaturationPoint estimates, for an arrival set and a config, the load
// multiplier at which each bounded class saturates (capacity / offered).
// The smallest bounded ratio is the knee the saturation analysis looks
// for. ok is false when nothing is bounded (an infinite backend never
// saturates).
func SaturationPoint(cfg Config, reqs []Request) (knee float64, ok bool) {
	offered := OfferedRate(reqs)
	capacity, bounded := cfg.Capacity()
	for c := Class(0); c < numClasses; c++ {
		if !bounded[c] || offered[c] <= 0 {
			continue
		}
		r := capacity[c] / offered[c]
		if !ok || r < knee {
			knee, ok = r, true
		}
	}
	return knee, ok
}
