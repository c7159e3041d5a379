package stats

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.N() != 0 || s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample should report zeros")
	}
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Sum() != 15 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.P50() != 3 {
		t.Fatalf("P50 = %v", s.P50())
	}
}

func TestPercentileInterpolation(t *testing.T) {
	var s Sample
	s.Add(10)
	s.Add(20)
	if got := s.Percentile(50); got != 15 {
		t.Fatalf("P50 of {10,20} = %v, want 15", got)
	}
	if got := s.Percentile(0); got != 10 {
		t.Fatalf("P0 = %v", got)
	}
	if got := s.Percentile(100); got != 20 {
		t.Fatalf("P100 = %v", got)
	}
	if got := s.Percentile(25); got != 12.5 {
		t.Fatalf("P25 = %v, want 12.5", got)
	}
}

func TestAddAfterQuery(t *testing.T) {
	var s Sample
	s.Add(2)
	s.Add(1)
	_ = s.P50() // forces sort
	s.Add(0)    // must re-sort on next query
	if s.Min() != 0 {
		t.Fatalf("Min after late Add = %v", s.Min())
	}
}

func TestPercentileMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		var s Sample
		for i := 0; i < int(n)+1; i++ {
			s.Add(rng.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return s.Min() <= s.P50() && s.P50() <= s.Max()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStddev(t *testing.T) {
	var s Sample
	s.Add(2)
	if s.Stddev() != 0 {
		t.Fatal("stddev of single sample should be 0")
	}
	s.Add(4)
	if got := s.Stddev(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Stddev = %v, want 1", got)
	}
}

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Fatalf("Geomean(2,8) = %v, want 4", got)
	}
	if Geomean(nil) != 0 {
		t.Fatal("Geomean(nil) != 0")
	}
	if Geomean([]float64{1, 0, 3}) != 0 {
		t.Fatal("Geomean with zero element should be 0")
	}
	if Geomean([]float64{-1}) != 0 {
		t.Fatal("Geomean with negative element should be 0")
	}
}

func TestGeomeanScaleInvariance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		xs := make([]float64, 5)
		for i := range xs {
			xs[i] = rng.Float64() + 0.1
		}
		g := Geomean(xs)
		scaled := make([]float64, len(xs))
		for i := range xs {
			scaled[i] = xs[i] * 2
		}
		return math.Abs(Geomean(scaled)-2*g) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Append(0, 0)
	ts.Append(1, 2)
	ts.Append(3, 2)
	if ts.Len() != 3 {
		t.Fatalf("Len = %d", ts.Len())
	}
	if ts.Max() != 2 {
		t.Fatalf("Max = %v", ts.Max())
	}
	// Integral: trapezoid 0..1 area 1, 1..3 area 4.
	if got := ts.Integral(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Integral = %v, want 5", got)
	}
	if got := ts.Mean(); math.Abs(got-4.0/3) > 1e-12 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestTimeSeriesOutOfOrderPanics(t *testing.T) {
	var ts TimeSeries
	ts.Append(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-order append")
		}
	}()
	ts.Append(4, 1)
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown("zeroing", "migration", "vmexits", "rest")
	b.Add("migration", 61.5)
	b.Add("zeroing", 24)
	b.Add("vmexits", 4.5)
	b.Add("rest", 10)
	if got := b.Total(); got != 100 {
		t.Fatalf("Total = %v", got)
	}
	if got := b.Fraction("migration"); math.Abs(got-0.615) > 1e-12 {
		t.Fatalf("Fraction(migration) = %v", got)
	}
	if got := b.Get("zeroing"); got != 24 {
		t.Fatalf("Get(zeroing) = %v", got)
	}
	if b.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestBreakdownUnknownLabelPanics(t *testing.T) {
	b := NewBreakdown("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on unknown label")
		}
	}()
	b.Add("nope", 1)
}

func TestBreakdownFractionZeroTotal(t *testing.T) {
	b := NewBreakdown("a", "b")
	if b.Fraction("a") != 0 {
		t.Fatal("Fraction with zero total should be 0")
	}
}

// Interleaved Add and percentile queries on a large sample must stay
// correct — each query after an Add sorts the sample again, so the
// lazy sort is an optimization, not a semantics change — and repeated
// queries on an unchanged sample must not disturb the result.
func TestPercentileIncrementalMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 7))
	var s Sample
	naive := func(p float64) float64 {
		xs := s.Values()
		if len(xs) == 0 {
			return 0
		}
		sort.Float64s(xs)
		rank := p / 100 * float64(len(xs)-1)
		lo := int(math.Floor(rank))
		hi := int(math.Ceil(rank))
		frac := rank - float64(lo)
		return xs[lo]*(1-frac) + xs[hi]*frac
	}
	for round := 0; round < 50; round++ {
		// A batch of appends, then a burst of order-statistic queries —
		// the access pattern of the fleet experiments' metric readouts.
		for i := 0; i < 200; i++ {
			s.Add(rng.ExpFloat64() * 100)
		}
		for _, p := range []float64{50, 99, 99.9} {
			want := naive(p)
			for rep := 0; rep < 3; rep++ {
				if got := s.Percentile(p); got != want {
					t.Fatalf("round %d P%v rep %d = %v, want %v", round, p, rep, got, want)
				}
			}
		}
		if got, want := s.P999(), naive(99.9); got != want {
			t.Fatalf("P999 = %v, want %v", got, want)
		}
	}
	if s.N() != 50*200 {
		t.Fatalf("N = %d after interleaved queries, want %d", s.N(), 50*200)
	}
}

func TestTimeSeriesReserve(t *testing.T) {
	var ts TimeSeries
	ts.Append(1, 10)
	ts.Reserve(100)
	if ts.Len() != 1 || ts.Times[0] != 1 || ts.Values[0] != 10 {
		t.Fatal("Reserve must preserve existing points")
	}
	if cap(ts.Times) < 100 || cap(ts.Values) < 100 {
		t.Fatalf("Reserve(100) left caps %d/%d", cap(ts.Times), cap(ts.Values))
	}
	for i := 2; i <= 100; i++ {
		ts.Append(float64(i), float64(10*i))
	}
	if ts.Len() != 100 {
		t.Fatalf("Len = %d", ts.Len())
	}
}

// TestPhasedSample checks the time-split sample used to separate
// pre-churn from post-churn latency: observations route to the phase
// their timestamp falls in, Merge is per-phase, and mismatched bounds
// are a programming error.
func TestPhasedSample(t *testing.T) {
	p := NewPhased(10, 20)
	if p.Phases() != 3 {
		t.Fatalf("Phases = %d, want 3", p.Phases())
	}
	p.Add(5, 100)  // phase 0: t < 10
	p.Add(10, 200) // phase 1: bound belongs to the later phase
	p.Add(15, 300) // phase 1
	p.Add(25, 400) // phase 2
	for i, wantN := range []int{1, 2, 1} {
		if got := p.Phase(i).N(); got != wantN {
			t.Fatalf("phase %d N = %d, want %d", i, got, wantN)
		}
	}
	if got := p.Phase(1).Max(); got != 300 {
		t.Fatalf("phase 1 max = %v, want 300", got)
	}

	q := NewPhased(10, 20)
	q.Add(3, 50)
	p.Merge(q)
	if got := p.Phase(0).N(); got != 2 {
		t.Fatalf("merged phase 0 N = %d, want 2", got)
	}

	p.Reset()
	for i := 0; i < p.Phases(); i++ {
		if p.Phase(i).N() != 0 {
			t.Fatalf("phase %d not empty after Reset", i)
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Merge with mismatched bounds did not panic")
			}
		}()
		p.Merge(NewPhased(10, 30))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("non-ascending bounds did not panic")
			}
		}()
		NewPhased(20, 10)
	}()
}
