// Package simrand provides the seeded random sources and statistical
// distributions used by the workload generators and the network emulator.
//
// All randomness in a simulation flows from a single root seed so that every
// experiment is reproducible. Independent subsystems derive child sources via
// Fork, which hashes the parent stream's name, keeping streams decorrelated
// without global coordination.
package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Source is a deterministic random stream. It wraps math/rand with the
// distribution helpers the simulator needs.
type Source struct {
	rng  *rand.Rand
	name string
}

// New returns a source seeded by seed, with a name used in diagnostics and
// when deriving child streams.
func New(seed int64, name string) *Source {
	return &Source{rng: rand.New(rand.NewSource(seed)), name: name}
}

// Fork derives an independent child stream. The child seed mixes the parent
// stream deterministically with the child name, so two children with
// different names never share a sequence.
func (s *Source) Fork(name string) *Source {
	h := fnv64(s.name + "/" + name)
	seed := int64(h) ^ s.rng.Int63()
	return New(seed, s.name+"/"+name)
}

// DeriveSeed mixes a root seed with a stream name into an independent child
// seed, for subsystems (such as fleet shards) that need decorrelated
// deterministic streams without threading a shared Source through. The
// finalizer is splitmix64's, so nearby seeds and names land far apart.
func DeriveSeed(seed int64, name string) int64 {
	z := uint64(seed) + fnv64(name)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// fnv64 is the FNV-1a hash, inlined to avoid pulling hash/fnv allocations
// into hot paths.
func fnv64(str string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(str); i++ {
		h ^= uint64(str[i])
		h *= prime
	}
	return h
}

// Name returns the stream name.
func (s *Source) Name() string { return s.name }

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.rng.Float64() }

// Intn returns a uniform int in [0,n). n must be positive.
func (s *Source) Intn(n int) int { return s.rng.Intn(n) }

// Int63n returns a uniform int64 in [0,n).
func (s *Source) Int63n(n int64) int64 { return s.rng.Int63n(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.rng.Uint64() }

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.rng.Perm(n) }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.rng.Float64() < p }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.rng.Float64()
}

// Normal returns a normally distributed value.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.rng.NormFloat64()
}

// LogNormal returns exp(N(mu, sigma)). mu and sigma are the parameters of
// the underlying normal, i.e. the median is exp(mu).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMedian parameterizes a lognormal by its median and sigma, the
// form most convenient when calibrating against published medians.
func (s *Source) LogNormalMedian(median, sigma float64) float64 {
	return s.LogNormal(math.Log(median), sigma)
}

// Exponential returns an exponentially distributed value with the given mean.
func (s *Source) Exponential(mean float64) float64 {
	return s.rng.ExpFloat64() * mean
}

// Poisson returns a Poisson-distributed count with the given mean, using
// Knuth's method for small means and normal approximation for large ones.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 60 {
		v := s.Normal(mean, math.Sqrt(mean))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// WeightedChoice selects among options with the given weights.
type WeightedChoice struct {
	cum []float64
	src *Source
}

// NewWeightedChoice builds a sampler over len(weights) options. Weights must
// be non-negative with a positive sum.
func NewWeightedChoice(src *Source, weights []float64) *WeightedChoice {
	cum := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("simrand: negative weight %f at %d", w, i))
		}
		sum += w
		cum[i] = sum
	}
	if sum <= 0 {
		panic("simrand: weights sum to zero")
	}
	for i := range cum {
		cum[i] /= sum
	}
	return &WeightedChoice{cum: cum, src: src}
}

// Draw returns the index of the chosen option.
func (w *WeightedChoice) Draw() int {
	u := w.src.Float64()
	return sort.SearchFloat64s(w.cum, u)
}
