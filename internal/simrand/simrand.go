// Package simrand provides the seeded random sources and statistical
// distributions used by the workload generators and the network emulator.
//
// All randomness in a simulation flows from a single root seed so that every
// experiment is reproducible. Independent subsystems derive child sources via
// Fork, which hashes the parent stream's name, keeping streams decorrelated
// without global coordination.
//
// A Source draws math/rand's Go 1 stream bit for bit. The frequent draws
// inline on this package's copy of its generator; the rare ones (Normal,
// Exponential, Shuffle, Intn past 2³¹−1) go through a rand.Rand over the
// same state, which keeps math/rand's ziggurat tables out of this package.
package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Source is a deterministic random stream: math/rand's Go 1 stream with the
// distribution helpers the simulator needs.
type Source struct {
	rng  *rand.Rand // the rare draws, over gen
	name string
	gen  gen // last, so that a collection scans the pointers alone
}

// New returns a source seeded by seed, with a name used in diagnostics and
// when deriving child streams.
func New(seed int64, name string) *Source {
	s := &Source{name: name}
	s.gen.Seed(seed)
	s.rng = rand.New(&s.gen)
	return s
}

// Fork derives an independent child stream. The child seed mixes the parent
// stream deterministically with the child name, so two children with
// different names never share a sequence.
func (s *Source) Fork(name string) *Source {
	h := fnv64(s.name + "/" + name)
	seed := int64(h) ^ s.gen.Int63()
	return New(seed, s.name+"/"+name)
}

const genLen, genTap = 607, 273 // math/rand's rngLen and rngTap

// gen is rand.NewSource's additive lagged Fibonacci generator.
type gen struct {
	tap, feed int
	vec       [genLen]int64
}

// cooked is math/rand's rngCooked seeding table. init recovers it: seed 1's
// first genLen outputs are its state after genLen steps, which undone in
// reverse give its seeded state, less the words Seed(1) XORs in.
var cooked [genLen]int64

func init() {
	var g, words gen
	words.Seed(1) // cooked is still zero: the words alone
	src := rand.NewSource(1).(rand.Source64)
	for k := 1; k <= genLen; k++ {
		g.vec[(2*genLen-genTap-k)%genLen] = int64(src.Uint64())
	}
	for k := genLen; k >= 1; k-- {
		i := (2*genLen - genTap - k) % genLen
		g.vec[i] -= g.vec[genLen-k]
		cooked[i] = g.vec[i] ^ words.vec[i]
	}
}

// Seed is rand.(*rngSource).Seed, stepping x by math/rand's seedrand,
// x·48271 mod (2³¹−1), in int64 where seedrand uses Schrage's method.
func (g *gen) Seed(seed int64) {
	g.tap, g.feed = 0, genLen-genTap
	x := (seed%math.MaxInt32 + math.MaxInt32) % math.MaxInt32
	if x == 0 {
		x = 89482311
	}
	next := func() int64 { x = x * 48271 % math.MaxInt32; return x }
	for i := 0; i < 20; i++ {
		next()
	}
	for i := range g.vec {
		g.vec[i] = next()<<40 ^ next()<<20 ^ next() ^ cooked[i]
	}
}

// Uint64 is rand.(*rngSource).Uint64.
func (g *gen) Uint64() uint64 {
	if g.tap--; g.tap < 0 {
		g.tap += genLen
	}
	if g.feed--; g.feed < 0 {
		g.feed += genLen
	}
	x := g.vec[g.feed] + g.vec[g.tap]
	g.vec[g.feed] = x
	return uint64(x)
}

// Int63 is rand.(*rngSource).Int63.
func (g *gen) Int63() int64 { return int64(g.Uint64() &^ (1 << 63)) }

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

// Float64 returns a uniform value in [0,1), redrawing one that rounds to 1
// as rand.Rand.Float64 does, but in a loop: its goto, inlined, moves a
// caller's defer to the heap.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.gen.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}

// Intn returns a uniform int in [0,n). n must be positive. Up to 2³¹−1 it
// is rand.Rand.Int31n: redraw a v whose block of n values runs past 2³¹
// (its mask for a power of two gives the same v % n).
func (s *Source) Intn(n int) int {
	if n <= 0 || n > math.MaxInt32 {
		return s.rng.Intn(n)
	}
	for n := int32(n); ; {
		v := int32(s.gen.Int63() >> 32)
		if r := v % n; v-r <= math.MaxInt32-n+1 {
			return int(r)
		}
	}
}

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.gen.Uint64() }

// Shuffle randomizes the order of n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.rng.Shuffle(n, swap) }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool { return s.Float64() < p }

// Uniform returns a uniform value in [lo,hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
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
	return s.PoissonExp(math.Exp(-mean))
}

// PoissonExp is Poisson(mean) for a mean in (0, 60] given expNegMean =
// math.Exp(-mean), for callers that draw around one constant mean.
func (s *Source) PoissonExp(expNegMean float64) int {
	k := 0
	for p := s.Float64(); p > expNegMean; p *= s.Float64() {
		k++
	}
	return k
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
