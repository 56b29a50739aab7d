// Package simrand provides deterministic pseudo-random number generation
// for the simulator. All experiments are seeded, so identical invocations
// produce identical event streams, access traces and therefore identical
// harness output. The package deliberately avoids math/rand's global state:
// every component owns its own Source, and sources derived from the same
// parent with distinct labels are statistically independent.
package simrand

import (
	"math"
	"math/bits"
)

// Source is a splitmix64-seeded xoshiro256** generator. The zero value is
// not valid; use New or Derive.
type Source struct {
	s [4]uint64
}

// splitmix64 advances a 64-bit state and returns a well-mixed output. It is
// used to expand seeds into full generator state.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// streams.
func New(seed uint64) *Source {
	var src Source
	st := seed
	for i := range src.s {
		src.s[i] = splitmix64(&st)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// Derive returns a new Source whose stream is independent from src and from
// any sibling derived with a different label. It does not disturb src's own
// stream, so adding a Derive call never changes existing results.
func (src *Source) Derive(label uint64) *Source {
	st := src.s[0] ^ src.s[3] ^ (label * 0xd1342543de82ef95)
	var out Source
	for i := range out.s {
		out.s[i] = splitmix64(&st)
	}
	if out.s[0]|out.s[1]|out.s[2]|out.s[3] == 0 {
		out.s[0] = 1
	}
	return &out
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
//
//demeter:hotpath
func (src *Source) Uint64() uint64 {
	s := &src.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). n must be > 0.
func (src *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("simrand: Uint64n with n == 0")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	v := src.Uint64()
	hi, lo := bits.Mul64(v, n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			v = src.Uint64()
			hi, lo = bits.Mul64(v, n)
		}
	}
	return hi
}

// Intn returns a uniform value in [0, n). n must be > 0.
func (src *Source) Intn(n int) int {
	if n <= 0 {
		panic("simrand: Intn with n <= 0")
	}
	return int(src.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
//
//demeter:hotpath
func (src *Source) Float64() float64 {
	return float64(src.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
//
//demeter:hotpath
func (src *Source) Bool(p float64) bool {
	return src.Float64() < p
}

// Shuffle permutes the elements addressed by swap using the Fisher-Yates
// algorithm.
func (src *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := src.Intn(i + 1)
		swap(i, j)
	}
}

// Exp returns an exponentially distributed value with the given mean.
func (src *Source) Exp(mean float64) float64 {
	u := src.Float64()
	// Avoid log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -mean * math.Log(u)
}

// Zipf draws values in [0, n) following a Zipfian distribution with
// exponent s > 1 approximated by rejection-inversion (Hörmann/Derflinger).
// Workloads with power-law access skew (YCSB, graph500, PageRank) use it.
//
// The acceptance floor of a candidate k, hIntegral(k+0.5) − k^−s, is a
// pure function of k, so Next memoizes it for the first zipfMemo values
// of k in floors, NaN marking an entry not yet filled. A filled entry is
// the result of the same floor call the direct path makes, so it holds
// the same bits and every draw is unchanged. The table is allocated on
// the first Next, not in NewZipf, so a sampler that never draws costs
// nothing; k beyond the table uses the formula directly.
type Zipf struct {
	src              *Source
	n                uint64
	s                float64
	oneMinusS        float64
	oneOverOneMinusS float64
	hIntegralX1      float64
	hIntegralN       float64
	scale            float64
	floors           []float64 // floors[k-1] = floor(k), NaN = not yet filled
}

// zipfMemo bounds the memoized acceptance floors: the skewed draws land
// on small k, and 4096 entries are 32 KiB per sampler.
const zipfMemo = 4096

// NewZipf returns a Zipf sampler over [0, n) with exponent s (s > 1 gives
// heavier skew toward small values; s must be > 0 and != 1).
func NewZipf(src *Source, s float64, n uint64) *Zipf {
	if n == 0 {
		panic("simrand: NewZipf with n == 0")
	}
	if s <= 0 || s == 1 {
		panic("simrand: NewZipf exponent must be > 0 and != 1")
	}
	z := &Zipf{src: src, n: n, s: s}
	z.oneMinusS = 1 - s
	z.oneOverOneMinusS = 1 / z.oneMinusS
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralN = z.hIntegral(float64(n) + 0.5)
	z.scale = z.hIntegralN - z.hIntegralX1
	return z
}

// hIntegral is the antiderivative of x^(-s).
func (z *Zipf) hIntegral(x float64) float64 {
	logX := math.Log(x)
	return helper2(z.oneMinusS*logX) * logX
}

// helper2 computes (exp(x)-1)/x with care near zero.
func helper2(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Expm1(x) / x
	}
	// Each conversion rounds its product, so no GOARCH fuses it into a
	// multiply-add (the same rule holds in helper1 and Next).
	return 1 + float64(x*0.5*(1+float64(x/3*(1+float64(x*0.25)))))
}

// hIntegralInverse inverts hIntegral.
func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return math.Exp(helper1(t) * x)
}

// helper1 computes log1p(x)/x with care near zero.
func helper1(x float64) float64 {
	if math.Abs(x) > 1e-8 {
		return math.Log1p(x) / x
	}
	return 1 - float64(x*0.5*(1-float64(x/3*(1-float64(x*0.25)))))
}

// floor is the acceptance floor of candidate k: the bottom of k's
// histogram bar, whose height is h(k) = k^-s and whose top is
// hIntegral(k+0.5). It is kept out of line so the memoized and direct
// paths compile to one evaluation order and give the same bits.
//
//go:noinline
func (z *Zipf) floor(k float64) float64 {
	return z.hIntegral(k+0.5) - math.Exp(-z.s*math.Log(k))
}

// Next returns the next Zipf-distributed value in [0, n).
func (z *Zipf) Next() uint64 {
	if z.floors == nil {
		z.floors = make([]float64, min(z.n, zipfMemo))
		for i := range z.floors {
			z.floors[i] = math.NaN()
		}
	}
	for {
		u := z.hIntegralX1 + float64(z.src.Float64()*z.scale)
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		// Accept k when u falls within the histogram bar of k.
		var floor float64
		if i := int(k) - 1; i < len(z.floors) {
			floor = z.floors[i]
			if math.IsNaN(floor) {
				floor = z.floor(k)
				z.floors[i] = floor
			}
		} else {
			floor = z.floor(k)
		}
		if u >= floor {
			return uint64(k) - 1
		}
	}
}
