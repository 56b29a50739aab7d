package simrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeeds(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical values in 100 draws", same)
	}
}

func TestDeriveIndependence(t *testing.T) {
	parent := New(7)
	// Deriving must not disturb the parent stream.
	ref := New(7)
	for i := 0; i < 10; i++ {
		ref.Uint64()
	}
	for i := 0; i < 10; i++ {
		parent.Uint64()
	}
	_ = parent.Derive(1)
	if parent.Uint64() != ref.Uint64() {
		t.Fatal("Derive perturbed the parent stream")
	}
	// Siblings with different labels differ.
	base := New(7)
	c1, c2 := base.Derive(1), base.Derive(2)
	if c1.Uint64() == c2.Uint64() && c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling derived sources look identical")
	}
	// Same label twice gives the same stream (pure function of state+label).
	base2 := New(7)
	d1, d2 := base2.Derive(9), base2.Derive(9)
	for i := 0; i < 20; i++ {
		if d1.Uint64() != d2.Uint64() {
			t.Fatal("same-label derivation not reproducible")
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	src := New(3)
	err := quick.Check(func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := src.Uint64n(n)
		return v < n
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestUint64nUniformity(t *testing.T) {
	src := New(11)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[src.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("bucket %d has %d draws, want ~%.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	src := New(5)
	sum := 0.0
	for i := 0; i < 100000; i++ {
		f := src.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		sum += f
	}
	mean := sum / 100000
	if mean < 0.49 || mean > 0.51 {
		t.Errorf("Float64 mean %v, want ~0.5", mean)
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestShuffleIsPermutation(t *testing.T) {
	src := New(13)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	src.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 8 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestExpMean(t *testing.T) {
	src := New(21)
	const mean = 100.0
	sum := 0.0
	for i := 0; i < 200000; i++ {
		v := src.Exp(mean)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	got := sum / 200000
	if math.Abs(got-mean) > mean*0.02 {
		t.Errorf("Exp mean %v, want ~%v", got, mean)
	}
}

func TestZipfBoundsAndSkew(t *testing.T) {
	src := New(33)
	const n = 1000
	z := NewZipf(src, 1.2, n)
	counts := make([]int, n)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= n {
			t.Fatalf("Zipf value %d out of range [0,%d)", v, n)
		}
		counts[v]++
	}
	// Rank 0 should dominate: strictly more than rank 9, and the top-10
	// ranks should hold a large share of all draws.
	if counts[0] <= counts[9] {
		t.Errorf("Zipf not skewed: counts[0]=%d counts[9]=%d", counts[0], counts[9])
	}
	top := 0
	for i := 0; i < 10; i++ {
		top += counts[i]
	}
	if float64(top)/draws < 0.2 {
		t.Errorf("top-10 share %v, want >= 0.2 for s=1.2", float64(top)/draws)
	}
}

func TestZipfHeavierExponentIsMoreSkewed(t *testing.T) {
	const n, draws = 1000, 100000
	share := func(s float64) float64 {
		src := New(99)
		z := NewZipf(src, s, n)
		hit := 0
		for i := 0; i < draws; i++ {
			if z.Next() == 0 {
				hit++
			}
		}
		return float64(hit) / draws
	}
	if share(2.0) <= share(1.1) {
		t.Error("exponent 2.0 should concentrate more mass on rank 0 than 1.1")
	}
}

func TestZipfRejectsBadArgs(t *testing.T) {
	for _, tc := range []struct {
		s float64
		n uint64
	}{{1.0, 10}, {0, 10}, {-1, 10}, {1.5, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(s=%v, n=%d) did not panic", tc.s, tc.n)
				}
			}()
			NewZipf(New(1), tc.s, tc.n)
		}()
	}
}

// referenceZipfNext is Zipf.Next without the memoized floors: every
// candidate's acceptance floor is computed from the formula.
func referenceZipfNext(z *Zipf) uint64 {
	for {
		u := z.hIntegralX1 + z.src.Float64()*z.scale
		x := z.hIntegralInverse(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		} else if k > float64(z.n) {
			k = float64(z.n)
		}
		if u >= z.hIntegral(k+0.5)-math.Exp(-z.s*math.Log(k)) {
			return uint64(k) - 1
		}
	}
}

// The memoized floors give the same draws as the formula: a table
// smaller than zipfMemo, exactly zipfMemo, and draws past the table.
func TestZipfMemoGivesSameDraws(t *testing.T) {
	const draws = 100000
	if NewZipf(New(7), 1.1, 100).floors != nil {
		t.Fatal("NewZipf allocated the floor table before the first draw")
	}
	for _, s := range []float64{1.1, 1.3} {
		for _, n := range []uint64{100, zipfMemo, zipfMemo + 1, 1 << 20} {
			memo, ref := NewZipf(New(7), s, n), NewZipf(New(7), s, n)
			spilled := 0
			for i := 0; i < draws; i++ {
				got, want := memo.Next(), referenceZipfNext(ref)
				if got != want {
					t.Fatalf("s=%v n=%d draw %d: memoized %d, formula %d", s, n, i, got, want)
				}
				if got >= zipfMemo {
					spilled++
				}
			}
			if len(memo.floors) != int(min(n, zipfMemo)) {
				t.Errorf("s=%v n=%d: table has %d entries, want %d", s, n, len(memo.floors), min(n, zipfMemo))
			}
			if n == 1<<20 && spilled == 0 {
				t.Errorf("s=%v n=%d: no draw reached past the table", s, n)
			}
		}
	}
}

func TestBoolProbability(t *testing.T) {
	src := New(55)
	hits := 0
	for i := 0; i < 100000; i++ {
		if src.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / 100000
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bool(0.3) hit rate %v", p)
	}
}

func BenchmarkUint64(b *testing.B) {
	src := New(1)
	for i := 0; i < b.N; i++ {
		src.Uint64()
	}
}

func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(New(1), 1.2, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Next()
	}
}
