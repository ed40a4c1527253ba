package main

import (
	"math"
	"testing"
)

func TestNearestRankPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0.991, 100}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %g, want 7", got)
	}
}

func TestSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{1000, 0.99, true}, // rank 990, ten beyond
		{999, 0.99, false}, // rank 990, nine beyond
		{1100, 0.99, true},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3, 2, 4, 9.5, 7.25}, [3]float64{2, 4, 7.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestLadderStepsUnderATenthApart(t *testing.T) {
	steps := ladder(50, 1200, ladderRatio)
	if steps[0] != 50 || steps[len(steps)-1] < 1200 {
		t.Fatalf("ladder spans %g..%g, want 50..>=1200", steps[0], steps[len(steps)-1])
	}
	for i := 1; i < len(steps); i++ {
		if r := steps[i] / steps[i-1]; r <= 1 || r >= 1.1 {
			t.Errorf("steps %g -> %g differ by factor %g", steps[i-1], steps[i], r)
		}
	}
	if got := startStep(steps, 100); steps[got] > 100 || steps[got+1] <= 100 {
		t.Errorf("startStep(100) = %d (%g)", got, steps[got])
	}
	if got := startStep(steps, 1); got != 0 {
		t.Errorf("startStep below the ladder = %d, want 0", got)
	}
}

// fakeProbe meets the SLO up to capacity and fails above it.
func fakeProbe(capacity float64, calls *[]float64) func(float64) probeResult {
	return func(rate float64) probeResult {
		*calls = append(*calls, rate)
		r := probeResult{Rate: rate, N: 1100, P99Ms: 20}
		if rate > capacity {
			r.P99Ms = 500
		}
		r.Pass = meetsSLO(100, r)
		return r
	}
}

// probesUpTo allows a walk n probes in all.
func probesUpTo(n int) func(float64, int) bool {
	return func(_ float64, probed int) bool { return probed < n }
}

func TestSearchSLOFindsBoundaryFromEitherSide(t *testing.T) {
	steps := []float64{10, 20, 30, 40, 50, 60, 70}
	for _, start := range []int{0, 2, 4, 6} {
		var calls []float64
		best, found, bounded, tried := searchSLO(steps, start, probesUpTo(10), fakeProbe(45, &calls))
		if !found || !bounded || best != 40 {
			t.Errorf("start %d: best %g found %v bounded %v, want 40, found and bounded", start, best, found, bounded)
		}
		if len(tried) != len(calls) {
			t.Errorf("start %d: %d results for %d probes", start, len(tried), len(calls))
		}
	}
	var calls []float64
	if best, found, _, _ := searchSLO(steps, 3, probesUpTo(10), fakeProbe(5, &calls)); found || best != 10 {
		t.Errorf("every step fails: best %g, found %v; want the floor 10, not found", best, found)
	}
	calls = nil
	best, found, bounded, _ := searchSLO(steps, 0, probesUpTo(3), fakeProbe(1000, &calls))
	if len(calls) != 3 || best != 30 || !found || bounded {
		t.Errorf("probe cap: %d probes, best %g, found %v, bounded %v; want 3 probes, best 30, found, not bounded", len(calls), best, found, bounded)
	}
	calls = nil
	if best, _, bounded, _ := searchSLO(steps, 4, probesUpTo(10), fakeProbe(1000, &calls)); best != 70 || bounded {
		t.Errorf("ladder top: best %g, bounded %v; want 70, not bounded", best, bounded)
	}
	calls = nil
	best, found, _, _ = searchSLO(steps, 6, probesUpTo(2), fakeProbe(5, &calls))
	if found || best != 50 || len(calls) != 2 {
		t.Errorf("cut while failing: %d probes, best %g, found %v; want 2 probes, 50 (below the lowest failure), not found", len(calls), best, found)
	}
}

func TestSearchSLOGallopsDownALongLadder(t *testing.T) {
	steps := ladder(50, 1200, ladderRatio)
	for _, capacity := range []float64{60, 250, 700, 1100} {
		var calls []float64
		best, found, bounded, _ := searchSLO(steps, len(steps)-1, probesUpTo(16), fakeProbe(capacity, &calls))
		want := steps[startStep(steps, capacity)]
		if !found || !bounded || best != want {
			t.Errorf("capacity %g: best %g found %v bounded %v, want %g, found and bounded", capacity, best, found, bounded, want)
		}
		if len(calls) > 14 {
			t.Errorf("capacity %g: %d probes on a %d-step ladder", capacity, len(calls), len(steps))
		}
	}
}

func TestMeetsSLO(t *testing.T) {
	ok := probeResult{N: 1000, P99Ms: 50}
	if !meetsSLO(50, ok) {
		t.Error("p99 equal to the limit should pass")
	}
	for name, r := range map[string]probeResult{
		"over limit":    {N: 1000, P99Ms: 50.1},
		"failed":        {N: 1000, P99Ms: 1, Failed: 1},
		"backlog":       {N: 1000, P99Ms: 1, Backlog: true},
		"too few (p99)": {N: 999, P99Ms: 1},
	} {
		if meetsSLO(50, r) {
			t.Errorf("%s: passed", name)
		}
	}
}

func TestGrowingBacklog(t *testing.T) {
	steady := []int{10, 12, 9, 11, 10, 13, 10, 9, 12, 11, 10, 12}
	if growingBacklog(steady, []int{3, 5, 2}, 64) {
		t.Error("steady in-flight count flagged as backlog")
	}
	growing := []int{10, 12, 15, 20, 28, 35, 44, 52, 60, 70, 80, 90}
	if !growingBacklog(growing, nil, 64) {
		t.Error("in-flight count growing ninefold not flagged")
	}
	if !growingBacklog(steady, []int{3, 48, 2}, 64) {
		t.Error("queue at three quarters of capacity not flagged")
	}
	if growingBacklog(nil, nil, 64) {
		t.Error("no samples flagged as backlog")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "b", Start: 20, End: 50, Parent: 1},  // overlaps a
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1}, // runs past root
		{ID: 5, Name: "leaf", Start: 25, End: 28, Parent: 3},
		{ID: 6, Name: "open", Start: 0, End: -1},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10, 2: 20, 3: 27, 4: 30, 5: 3}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %d, want %d", id, self[id], w)
		}
	}
	if _, ok := self[6]; ok {
		t.Error("open span got a self time")
	}
}
