package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample accumulates float64 observations and answers order-statistic
// queries. The zero value is an empty sample.
//
// Observations are sorted lazily: Add clears the sorted flag, and the
// first order-statistic query after it sorts every observation once.
// Callers query percentiles after a run has finished adding, so one
// sort per sample is the whole cost. Min, Max, Sum, and Mean are
// tracked on Add and never trigger a sort.
//
// EnableSketch (sketch.go) switches a sample to bounded-memory
// reservoir mode: O(K) memory at any observation count, exact
// N/Sum/Mean/Min/Max, and order statistics within RankErrorBound(K)
// of exact. Exact mode is the default and is untouched by the sketch
// machinery.
type Sample struct {
	xs       []float64 // observations, ascending when sorted is set
	sorted   bool      // no Add since the last sort
	sum      float64
	min, max float64
	sk       *sketch // non-nil selects reservoir mode (sketch.go)
}

// Add appends an observation.
func (s *Sample) Add(v float64) {
	if s.N() == 0 || v < s.min {
		s.min = v
	}
	if s.N() == 0 || v > s.max {
		s.max = v
	}
	s.sum += v
	if s.sk != nil {
		s.sk.add(v)
		return
	}
	s.xs = append(s.xs, v)
	s.sorted = false
}

// Reset empties the sample while keeping its buffers (and, in sketch
// mode, the sketch configuration), so a pooled metrics struct can be
// reused across simulation runs. A reset sketched sample restarts its
// counter-mode priority stream from zero: reset-then-refill is
// byte-identical to a fresh sketch with the same configuration.
func (s *Sample) Reset() {
	s.xs = s.xs[:0]
	s.sorted = true
	s.sum = 0
	s.min = 0
	s.max = 0
	if s.sk != nil {
		s.sk.reset()
	}
}

// N returns the number of observations (exact in both modes).
func (s *Sample) N() int {
	if s.sk != nil {
		return s.sk.n
	}
	return len(s.xs)
}

// Sum returns the sum of all observations.
func (s *Sample) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty sample.
func (s *Sample) Mean() float64 {
	n := s.N()
	if n == 0 {
		return 0
	}
	return s.sum / float64(n)
}

// Min returns the smallest observation, or 0 for an empty sample.
func (s *Sample) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty sample.
func (s *Sample) Max() float64 { return s.max }

// Percentile returns the p-th percentile using linear interpolation
// between closest ranks. Boundary behavior, pinned by the property
// tests:
//
//   - N == 0 returns 0 for every p, including p = 0 and p = 100.
//   - N == 1 returns the single observation for every p.
//   - p <= 0 returns Min() and p >= 100 returns Max(), exactly — in
//     sketch mode too, where both extremes are tracked outside the
//     reservoir.
//   - p = NaN panics: a NaN rank would silently index garbage, and a
//     caller computing percentiles from NaN arithmetic has a bug.
//
// In sketch mode interior percentiles interpolate over the reservoir
// instead of the full sample, within RankErrorBound(K) of exact rank.
func (s *Sample) Percentile(p float64) float64 {
	if math.IsNaN(p) {
		panic("stats: Percentile(NaN)")
	}
	if s.N() == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min()
	}
	if p >= 100 {
		return s.Max()
	}
	var xs []float64
	if s.sk != nil {
		xs = s.sk.sortedVals()
		if len(xs) == 0 {
			return 0
		}
	} else {
		s.ensureSorted()
		xs = s.xs
	}
	n := len(xs)
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return xs[lo]
	}
	frac := rank - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

// P50 returns the median.
func (s *Sample) P50() float64 { return s.Percentile(50) }

// P99 returns the 99th percentile.
func (s *Sample) P99() float64 { return s.Percentile(99) }

// P999 returns the 99.9th percentile.
func (s *Sample) P999() float64 { return s.Percentile(99.9) }

// Stddev returns the population standard deviation, or 0 for fewer than
// two observations. Sketch mode computes it exactly from the tracked
// moments (n, sum, sum of squares) — it is not an estimate, though the
// one-pass moment formula can differ from the exact-mode two-pass
// result by floating-point rounding.
func (s *Sample) Stddev() float64 {
	n := s.N()
	if n < 2 {
		return 0
	}
	if s.sk != nil {
		m := s.Mean()
		varc := s.sk.sumsq/float64(n) - m*m
		if varc < 0 {
			varc = 0
		}
		return math.Sqrt(varc)
	}
	m := s.Mean()
	var ss float64
	for _, x := range s.xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n))
}

// Merge adds every observation of o to s. Percentiles, Min, and Max of
// the result depend only on the combined multiset of observations, so
// merging per-shard samples in any fixed order reproduces the
// order-statistics of a single globally-accumulated sample.
//
// Sketched samples merge with sketched samples of the same capacity
// (the union's bottom-K reservoir — commutative and associative, so
// any merge order is byte-identical); mixing a sketched sample with an
// exact one panics, because silently dropping or re-prioritizing
// observations across the mode boundary would corrupt both contracts.
func (s *Sample) Merge(o *Sample) {
	if (s.sk != nil) != (o.sk != nil) {
		panic(sketchMergePanic(s, o))
	}
	if s.sk != nil {
		if s.sk.cfg.K != o.sk.cfg.K {
			panic(fmt.Sprintf("stats: merging sketches with different capacities (%d vs %d)", s.sk.cfg.K, o.sk.cfg.K))
		}
		if o.sk.n == 0 {
			return
		}
		if s.sk.n == 0 || o.min < s.min {
			s.min = o.min
		}
		if s.sk.n == 0 || o.max > s.max {
			s.max = o.max
		}
		s.sum += o.sum
		s.sk.merge(o.sk)
		s.sk.sorted = false
		return
	}
	for _, v := range o.xs {
		s.Add(v)
	}
}

// Values returns a copy of the retained observations; insertion order
// is not guaranteed (the slice may be sorted). In sketch mode only the
// reservoir's observations are returned.
func (s *Sample) Values() []float64 {
	if s.sk != nil {
		out := make([]float64, 0, len(s.sk.ents))
		for _, e := range s.sk.ents {
			out = append(out, e.v)
		}
		return out
	}
	out := make([]float64, len(s.xs))
	copy(out, s.xs)
	return out
}

// ensureSorted sorts the observations if an Add came after the last
// sort.
func (s *Sample) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// PhasedSample partitions timestamped observations into phases split
// at fixed time bounds, keeping one Sample per phase. It is the
// tail-metric container for runs with a distinguished event in the
// middle — a host failure, a drain — where the question is not the
// whole-run percentile but the percentile *after* the event (the
// cold-start storm) versus before it. Phase i covers
// [bounds[i-1], bounds[i]); observations at or past the last bound
// land in the final phase.
type PhasedSample struct {
	bounds []float64
	phases []*Sample
}

// NewPhased builds a phased sample with len(bounds)+1 phases. Bounds
// must be strictly ascending; NewPhased panics otherwise, because a
// misordered phase split silently misfiles every observation.
func NewPhased(bounds ...float64) *PhasedSample {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("stats: phase bounds not ascending: %v", bounds))
		}
	}
	p := &PhasedSample{bounds: append([]float64(nil), bounds...)}
	for i := 0; i <= len(bounds); i++ {
		p.phases = append(p.phases, &Sample{})
	}
	return p
}

// Add files the observation v, timestamped t, into its phase.
func (p *PhasedSample) Add(t, v float64) {
	p.phases[p.phaseOf(t)].Add(v)
}

func (p *PhasedSample) phaseOf(t float64) int {
	for i, b := range p.bounds {
		if t < b {
			return i
		}
	}
	return len(p.bounds)
}

// Phases returns the number of phases (bounds + 1).
func (p *PhasedSample) Phases() int { return len(p.phases) }

// Phase returns the sample of phase i.
func (p *PhasedSample) Phase(i int) *Sample { return p.phases[i] }

// Merge adds every observation of o into the matching phase of p. Both
// samples must have identical bounds — per-shard phased samples are
// built from one shared configuration — and Merge panics otherwise.
// Like Sample.Merge, the result depends only on the combined multiset
// per phase, so merging in any fixed order is order-insensitive.
func (p *PhasedSample) Merge(o *PhasedSample) {
	if len(o.bounds) != len(p.bounds) {
		panic("stats: merging phased samples with different bounds")
	}
	for i, b := range o.bounds {
		if b != p.bounds[i] {
			panic("stats: merging phased samples with different bounds")
		}
	}
	for i, s := range o.phases {
		p.phases[i].Merge(s)
	}
}

// Reset empties every phase while keeping bounds and buffers.
func (p *PhasedSample) Reset() {
	for _, s := range p.phases {
		s.Reset()
	}
}

// EnableSketch switches every phase to bounded-memory reservoir mode,
// deriving a distinct priority sub-stream per phase (FNV-folded off
// cfg.Stream) so phases stay uncorrelated. Like Sample.EnableSketch it
// must be called while the phases are empty.
func (p *PhasedSample) EnableSketch(cfg SketchConfig) {
	for i, s := range p.phases {
		c := cfg
		c.Stream = cfg.Stream*0x100000001B3 + uint64(i) + 1
		s.EnableSketch(c)
	}
}

// Geomean returns the geometric mean of xs. Non-positive values and an
// empty slice yield 0, matching the "undefined" convention used when a
// speedup table contains a zero entry.
func Geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// TimeSeries is an append-only series of (time, value) points sampled
// during a simulation, e.g. memory utilization over time.
type TimeSeries struct {
	Name   string
	Times  []float64 // seconds
	Values []float64
}

// Reserve grows the series' capacity to hold at least n points, so a
// driver that knows its sampling cadence (e.g. one tick per simulated
// second across a multi-day run) can pre-size the buffers once instead
// of growing them through repeated appends. Each buffer is checked
// independently: a pooled series whose Times and Values capacities
// diverged (buffer swaps, partial growth) is fully sized either way —
// the old single-cap check could leave Values under-sized and
// reallocating throughout a multi-day run.
func (ts *TimeSeries) Reserve(n int) {
	if n > cap(ts.Times) {
		times := make([]float64, len(ts.Times), n)
		copy(times, ts.Times)
		ts.Times = times
	}
	if n > cap(ts.Values) {
		values := make([]float64, len(ts.Values), n)
		copy(values, ts.Values)
		ts.Values = values
	}
}

// Append adds a point. Times must be non-decreasing; Append panics
// otherwise because an out-of-order sample is a simulation bug.
func (ts *TimeSeries) Append(t, v float64) {
	if n := len(ts.Times); n > 0 && t < ts.Times[n-1] {
		panic(fmt.Sprintf("stats: out-of-order time series point %v after %v", t, ts.Times[n-1]))
	}
	ts.Times = append(ts.Times, t)
	ts.Values = append(ts.Values, v)
}

// Len returns the number of points.
func (ts *TimeSeries) Len() int { return len(ts.Times) }

// Max returns the maximum value, or 0 for an empty series.
func (ts *TimeSeries) Max() float64 {
	m := 0.0
	for i, v := range ts.Values {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Mean returns the time-unweighted mean value, or 0 for an empty series.
func (ts *TimeSeries) Mean() float64 {
	if len(ts.Values) == 0 {
		return 0
	}
	var s float64
	for _, v := range ts.Values {
		s += v
	}
	return s / float64(len(ts.Values))
}

// Integral returns the time integral of the series (trapezoidal rule),
// in value·seconds — e.g. GiB·s for a memory-usage series in GiB.
func (ts *TimeSeries) Integral() float64 {
	var area float64
	for i := 1; i < len(ts.Times); i++ {
		dt := ts.Times[i] - ts.Times[i-1]
		area += dt * (ts.Values[i] + ts.Values[i-1]) / 2
	}
	return area
}

// Breakdown is a labelled decomposition of a total cost, e.g. the
// zeroing / migration / VM-exit / rest split of Figure 5.
type Breakdown struct {
	Labels []string
	Parts  []float64
}

// NewBreakdown creates a breakdown with the given component labels, all
// parts zero.
func NewBreakdown(labels ...string) *Breakdown {
	return &Breakdown{Labels: labels, Parts: make([]float64, len(labels))}
}

// Add accumulates v into the named component; it panics on an unknown
// label (a typo in an experiment driver should fail loudly).
func (b *Breakdown) Add(label string, v float64) {
	for i, l := range b.Labels {
		if l == label {
			b.Parts[i] += v
			return
		}
	}
	panic("stats: unknown breakdown label " + label)
}

// Get returns the accumulated value of the named component.
func (b *Breakdown) Get(label string) float64 {
	for i, l := range b.Labels {
		if l == label {
			return b.Parts[i]
		}
	}
	panic("stats: unknown breakdown label " + label)
}

// Total returns the sum of all components.
func (b *Breakdown) Total() float64 {
	var s float64
	for _, p := range b.Parts {
		s += p
	}
	return s
}

// Fraction returns the named component's share of the total, or 0 when
// the total is zero.
func (b *Breakdown) Fraction(label string) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return b.Get(label) / t
}

// String renders the breakdown as "label=value(pct%)" pairs.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i, l := range b.Labels {
		if i > 0 {
			sb.WriteString(" ")
		}
		fmt.Fprintf(&sb, "%s=%.2f(%.0f%%)", l, b.Parts[i], 100*b.Fraction(l))
	}
	return sb.String()
}
