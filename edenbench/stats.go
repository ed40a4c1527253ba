package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// rankOf is the 1-based nearest rank of the q-quantile among n samples:
// the smallest rank r with r/n >= q.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// supported reports whether n samples leave at least minBeyond of them
// beyond the q-quantile, so that the quantile is worth reporting.
func supported(n int, q float64) bool {
	return n > 0 && n-rankOf(n, q) >= minBeyond
}

// percentile is the nearest-rank q-quantile of xs (unsorted; not mutated).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), q)-1]
}

// median is the middle value of xs, averaging the two middle values of an
// even-length sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points dividing xs into quarters, by
// the same exclusive method as Python's statistics.quantiles(xs, n=4).
// It needs at least two samples.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		out[i-1] = (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return out
}

// ladder is the fixed set of offered rates the SLO search may probe:
// geometric from lo by ratio, up to the first rate at or above hi, each
// rounded to 0.1 req/s.
func ladder(lo, hi, ratio float64) []float64 {
	var out []float64
	for r := lo; ; r *= ratio {
		out = append(out, math.Round(r*10)/10)
		if r >= hi {
			return out
		}
	}
}

// startStep is the highest ladder index whose rate is at most rate, or 0.
func startStep(steps []float64, rate float64) int {
	i := sort.SearchFloat64s(steps, rate+1e-9) - 1
	if i < 0 {
		return 0
	}
	return i
}

// probeResult is the verdict of one open-loop probe at a ladder rate.
type probeResult struct {
	Rate    float64 `json:"rate"`
	Pass    bool    `json:"pass"`
	P99Ms   float64 `json:"p99_ms"`
	N       int     `json:"n"`
	Failed  int     `json:"failed"`
	Backlog bool    `json:"backlog"`
}

// meetsSLO is the pass rule of one probe: no failed request, enough
// samples to support p99, p99 within the limit, and no growing backlog.
func meetsSLO(limitMs float64, r probeResult) bool {
	return r.Failed == 0 && supported(r.N, 0.99) && r.P99Ms <= limitMs && !r.Backlog
}

// searchSLO finds the highest ladder rate that meets the SLO, starting at
// step start. While probes pass it walks up one step at a time; after a
// failing probe it gallops down (1, 2, 4, ... steps below the last failing
// one) to a passing step and bisects back up to the boundary, so that a
// host much slower than the start step assumed costs a few probes, not a
// walk down the whole ladder. The first probe always runs; every further
// one only while more(rate, probes so far) allows it. Latency grows with
// offered rate, so the walk ends between the highest passing and the
// lowest failing step; bounded is false when no failing probe sits right
// above best (more, or the ladder's top, ended the walk), so that best only
// bounds the SLO rate from below. found is false when no probe passed;
// best is then the step right below the lowest failing one (the ladder's
// floor if that failed): a bound from above, not a measurement.
func searchSLO(steps []float64, start int, more func(rate float64, probed int) bool, probe func(rate float64) probeResult) (best float64, found, bounded bool, tried []probeResult) {
	try := func(i int) (pass, ran bool) {
		if len(tried) > 0 && !more(steps[i], len(tried)) {
			return false, false
		}
		r := probe(steps[i])
		tried = append(tried, r)
		return r.Pass, true
	}
	if pass, _ := try(start); pass {
		i := start
		for ; i+1 < len(steps); i++ {
			pass, ran := try(i + 1)
			if !ran || !pass {
				return steps[i], true, ran, tried
			}
		}
		return steps[i], true, false, tried
	}
	fail, lo := start, -1
	for stride := 1; lo < 0; stride *= 2 {
		if fail == 0 {
			return steps[0], false, false, tried
		}
		i := max(fail-stride, 0)
		pass, ran := try(i)
		switch {
		case !ran:
			return steps[fail-1], false, false, tried
		case pass:
			lo = i
		default:
			fail = i
		}
	}
	for fail-lo > 1 {
		mid := (lo + fail) / 2
		pass, ran := try(mid)
		switch {
		case !ran:
			return steps[lo], true, false, tried
		case pass:
			lo = mid
		default:
			fail = mid
		}
	}
	return steps[lo], true, true, tried
}

// growingBacklog reports whether a probe's outstanding work kept growing:
// the client's in-flight count over the last quarter of the probe is more
// than twice that of the first quarter (plus slack for batch-sized
// jitter), or some server queue reached three quarters of its capacity.
func growingBacklog(inflight []int, queueDepth []int, queueCap int) bool {
	if q := len(inflight) / 4; q > 0 {
		first, last := 0, 0
		for i := 0; i < q; i++ {
			first += inflight[i]
			last += inflight[len(inflight)-q+i]
		}
		if float64(last)/float64(q) > 2*float64(first)/float64(q)+batchSlack {
			return true
		}
	}
	for _, d := range queueDepth {
		if queueCap > 0 && 4*d >= 3*queueCap {
			return true
		}
	}
	return false
}

// batchSlack absorbs in-flight swings of about one micro-batch.
const batchSlack = 16
