package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/eden"
	"repro/internal/serve"
)

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

// latSamples is the request count of each SLO probe: enough to leave at
// least ten samples beyond p99, with headroom.
const latSamples = 1100

// lowSamples is the request count of each low-rate round: 30 beyond p90.
const lowSamples = 300

// rounds is how many interleaved rounds the closed loop and the low-rate
// phase are split into; an SLO walk follows every roundsPerWalk of them.
const (
	rounds        = 6
	roundsPerWalk = 3
)

// probeGap is the idle time before each SLO probe.
const probeGap = 250 * time.Millisecond

// maxProbes bounds each SLO walk; walkWindow, as a multiple of the run's
// budget from the end of the warm-up, is when SLO walks stop starting
// probes. Together they bound a run's length on a slow host.
const (
	maxProbes  = 12
	walkWindow = 3
)

// firstSeed is the request seed of each set-up's first predict.
const firstSeed = 1

// setupResult is one timed set-up: deploy, launch, first verified predict.
type setupResult struct {
	dep      *eden.Deployment
	fleet    *fleet
	path     string
	seconds  float64 // the whole set-up
	deployS  float64 // eden.Deploy alone
	readyS   float64 // launch until every /v1/healthz answers 200
	firstOut []float32
}

// setup deploys the workload's artifact, saves it, launches its serving
// processes and waits for the first predict; the caller verifies that
// answer once the reference exists.
func (b *bench) setup(rep int) (*setupResult, error) {
	sp := b.tracer.begin("setup", 0, int64(rep))
	t0 := time.Now()
	dsp := b.tracer.begin("eden.deploy", sp, int64(rep))
	dep, err := eden.Deploy(b.w.Model, deployConfig(b.backend))
	b.tracer.end(dsp)
	if err != nil {
		return nil, err
	}
	deployS := time.Since(t0).Seconds()
	path := filepath.Join(b.dir, fmt.Sprintf("artifact-%d.eden", rep))
	if err := dep.SaveFile(path); err != nil {
		return nil, err
	}
	tl := time.Now()
	lsp := b.tracer.begin("serve.launch", sp, int64(rep))
	f, err := launchFleet(dep, path, b.w.Backend, b.w.Stages)
	b.tracer.end(lsp)
	if err != nil {
		return nil, err
	}
	readyS := time.Since(tl).Seconds()
	psp := b.tracer.begin("serve.first_predict", sp, int64(rep))
	out, err := predictOnce(f.front, f.model, b.inputs[0], firstSeed)
	b.tracer.end(psp)
	if err != nil {
		f.stop()
		return nil, err
	}
	b.tracer.end(sp)
	return &setupResult{dep: dep, fleet: f, path: path, seconds: time.Since(t0).Seconds(),
		deployS: deployS, readyS: readyS, firstOut: out}, nil
}

// setupAll runs setupReps set-ups, keeping the fleet of the last one.
func (b *bench) setupAll() ([]*setupResult, error) {
	var out []*setupResult
	for rep := 0; rep < setupReps; rep++ {
		s, err := b.setup(rep)
		if err != nil {
			for _, prev := range out {
				if prev.fleet != nil {
					prev.fleet.stop()
				}
			}
			return nil, err
		}
		if len(out) > 0 {
			out[len(out)-1].fleet.stop()
			out[len(out)-1].fleet = nil
		}
		out = append(out, s)
	}
	return out, nil
}

// predictOnce sends one predict over HTTP/1.1 and returns its output.
func predictOnce(front, model string, input []float32, seed uint64) ([]float32, error) {
	body, err := json.Marshal(serve.PredictRequest{Input: input, Seed: seed})
	if err != nil {
		return nil, err
	}
	resp, err := controlClient.Post(front+"/v1/models/"+model+"/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("first predict: status %d: %s", resp.StatusCode, data)
	}
	var pr serve.PredictResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		return nil, err
	}
	return pr.Output, nil
}

// e2eMetricSpecs lists the end-to-end run's metrics, in BENCHMARK.json
// order.
var e2eMetricSpecs = []metricSpec{
	{"throughput_qps", "req/s", "higher"},
	{"slo_qps", "req/s", "higher"},
	{"p50_ms_low", "ms", "lower"},
	{"p90_ms_low", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"peak_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// e2eRecord is the full account of an end-to-end run.
type e2eRecord struct {
	Meta       runMeta              `json:"meta"`
	Valid      bool                 `json:"valid"`
	Warnings   []string             `json:"warnings,omitempty"`
	SetupS     []float64            `json:"setup_s"`
	Plan       [][2]int             `json:"plan,omitempty"`
	Phases     []*phase             `json:"phases"`
	Rounds     map[string][]float64 `json:"rounds"`
	Probes     [][]probeResult      `json:"slo_probes"`
	SLOWalks   []float64            `json:"slo_walks"`
	Verified   int                  `json:"verified"`
	Mismatched []keptOutput         `json:"mismatched,omitempty"`
	Metrics    map[string]metric    `json:"metrics"`
}

// roundRate rounds an offered rate to 0.1 req/s for the record.
func roundRate(r float64) float64 { return math.Max(1, math.Round(r*10)/10) }

// phaseSeconds is a phase's duration: its share of the budget, stretched
// until a fixed rate yields n requests (rate 0: a closed loop).
func phaseSeconds(budget, share, rate float64, n int) time.Duration {
	s := budget * share
	if rate > 0 {
		s = math.Max(s, float64(n)/rate)
	}
	return time.Duration(s * float64(time.Second))
}

func (b *bench) runEndToEnd(seconds float64) (summary, any, error) {
	rec := &e2eRecord{Meta: b.meta, Valid: true}
	setups, err := b.setupAll()
	if err != nil {
		return summary{}, nil, err
	}
	last := setups[len(setups)-1]
	f := last.fleet
	defer func() {
		if f != nil {
			f.stop()
		}
	}()
	rec.Plan = f.plan.Ranges
	for _, s := range setups {
		rec.SetupS = append(rec.SetupS, s.seconds)
	}

	g := newLoadgen(f.front, f.model, b.inputs, b.tm.Net.Classes, seedBase(b.seed))
	defer g.close()
	queue := func() int { return maxQueueDepth(f) }
	add := func(p *phase) *phase { rec.Phases = append(rec.Phases, p); return p }

	add(g.closedLoop("warmup", inFlight, time.Second))
	walkDeadline := time.Now().Add(time.Duration(walkWindow * seconds * float64(time.Second)))
	probeLen := func(rate float64) time.Duration { return phaseSeconds(seconds, 0.04, rate, latSamples) }
	moreProbes := func(rate float64, probed int) bool {
		return probed < maxProbes && time.Now().Add(probeGap+probeLen(rate)).Before(walkDeadline)
	}
	// Each round runs a closed loop, then the low fixed rate as a share of
	// that loop's throughput, so that the rate tracks the host's speed
	// where it drifts during a run and between runs; with absolute rates
	// the latency percentiles swung by more than their median between
	// runs of the same code. Every roundsPerWalk rounds an SLO walk
	// follows, starting from those rounds' throughput. Every metric is the
	// median of its per-round or per-walk values: the host's speed drifts
	// within seconds, and a median over short measurements spread across
	// the run steadies a metric more than one long measurement does.
	var closedParts, lowParts, probeParts []*phase
	verdicts := map[*phase]probeResult{}
	var rss float64
	steps := b.meta.Ladder
	queueCap := 4 * 16
	for r := 0; r < rounds; r++ {
		c := g.closedLoop("closed", inFlight, phaseSeconds(seconds, 0.4/rounds, 0, 0))
		closedParts = append(closedParts, c)
		lowRate := roundRate(b.w.LowFrac * c.QPS)
		lowParts = append(lowParts, g.openLoop("low", lowRate, phaseSeconds(seconds, 0.1/rounds, lowRate, lowSamples), queue))
		if (r+1)%roundsPerWalk != 0 {
			continue
		}
		if len(rec.SLOWalks) == 0 {
			// Peak memory under the rated load, before the SLO walks
			// push the fleet past capacity: overload peaks differ from
			// run to run.
			var err error
			if rss, err = f.peakRSSMB(); err != nil {
				return summary{}, nil, err
			}
		}
		qps := 0.0
		for _, c := range closedParts[len(closedParts)-roundsPerWalk:] {
			qps += c.QPS / roundsPerWalk
		}
		walk := len(rec.SLOWalks)
		best, found, bounded, probes := searchSLO(steps, startStep(steps, b.w.SLOStartFrac*qps), moreProbes, func(rate float64) probeResult {
			// A short idle gap keeps one probe's tail out of the next.
			time.Sleep(probeGap)
			p := g.openLoop(fmt.Sprintf("slo%d@%g", walk, rate), rate, probeLen(rate), queue)
			probeParts = append(probeParts, p)
			r := probeResult{Rate: rate, P99Ms: p.P99Ms, N: len(p.lats), Failed: p.failed(),
				Backlog: growingBacklog(p.inflight, p.queue, queueCap)}
			r.Pass = meetsSLO(b.w.LimitMs, r)
			verdicts[p] = r
			return r
		})
		rec.Probes = append(rec.Probes, probes)
		switch {
		case !found:
			rec.Valid = false
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("SLO walk %d: no probed step met p99 <= %gms; %g req/s, the step below the lowest probed, bounds the SLO rate from above", walk, b.w.LimitMs, best))
		case !bounded:
			rec.Valid = false
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("SLO walk %d stopped at %g req/s with every probe above it untried: it only bounds the SLO rate from below", walk, best))
		}
		rec.SLOWalks = append(rec.SLOWalks, best)
		// Let the last probe's backlog drain before the next round.
		time.Sleep(probeGap)
	}
	add(merge("closed", closedParts))
	add(merge("low", lowParts))
	// The phases the fleet is rated for; the SLO probes push it past
	// capacity on purpose, so their failures only judge the probes.
	rated := len(rec.Phases)
	for _, p := range probeParts {
		add(p)
	}
	f.stop()
	f = nil

	// Bit check, after the timed window: the kept subset of every phase
	// plus each set-up's first predict, against in-process serving of the
	// unsliced artifact.
	ref, err := newReference(last.dep, b.backend)
	if err != nil {
		return summary{}, nil, err
	}
	defer ref.close()
	kept := g.kept
	for i, s := range setups {
		kept = append(kept, keptOutput{Phase: fmt.Sprintf("setup%d", i), Idx: -1, Input: 0, Seed: firstSeed, Output: s.firstOut})
	}
	bad, err := ref.verifyKept(b.inputs, kept)
	if err != nil {
		return summary{}, nil, err
	}
	rec.Verified, rec.Mismatched = len(kept), bad
	for _, k := range bad {
		for _, p := range rec.Phases {
			if p.Name == k.Phase {
				p.Mismatch++
			}
		}
	}

	// attempted, failed and ok_frac count the set-ups' first predicts and
	// the rated phases, where no request should fail.
	attempted, failed := setupReps, 0
	for _, k := range bad {
		if k.Idx < 0 {
			failed++
		}
	}
	for i, p := range rec.Phases {
		if i < rated {
			attempted += p.Sent
			failed += p.failed()
		}
		// A late generator sends less than the offered rate and adds its
		// lateness to latency. A failed probe whose p99 stays over the
		// limit once the lag is taken off is not in doubt: past capacity
		// the server's back-pressure is what makes the generator late.
		v, probed := verdicts[p]
		lagDecided := !probed || v.Pass || v.P99Ms-p.LagP99Ms <= b.w.LimitMs
		if p.Mode == "open" && p.LagP99Ms > 0.1*b.w.LimitMs && lagDecided {
			rec.Valid = false
			rec.Warnings = append(rec.Warnings, fmt.Sprintf("phase %s: generator lag p99 %.2fms exceeds a tenth of the latency limit", p.Name, p.LagP99Ms))
		}
	}
	// round collects one per-round value of each metric.
	round := map[string][]float64{}
	for _, p := range closedParts {
		round["throughput_qps"] = append(round["throughput_qps"], float64(p.OK)/p.Seconds)
	}
	for _, p := range lowParts {
		if !supported(len(p.lats), 0.90) {
			return summary{}, nil, fmt.Errorf("phase %s: %d latencies do not support p90", p.Name, len(p.lats))
		}
		round["p50_ms_low"] = append(round["p50_ms_low"], p.P50Ms)
		round["p90_ms_low"] = append(round["p90_ms_low"], percentile(p.lats, 0.90))
	}
	rec.Rounds = round
	rec.Metrics = map[string]metric{
		"setup_s":     {median(rec.SetupS), "s"},
		"peak_rss_mb": {rss, "MB"},
		"slo_qps":     {median(rec.SLOWalks), "req/s"},
		"ok_frac":     {1 - float64(failed)/float64(attempted), "ratio"},
	}
	for _, s := range e2eMetricSpecs {
		if vals, ok := round[s.name]; ok {
			rec.Metrics[s.name] = metric{median(vals), s.unit}
		}
		if _, ok := rec.Metrics[s.name]; !ok {
			return summary{}, nil, fmt.Errorf("end-to-end run did not measure %s", s.name)
		}
	}
	for _, w := range rec.Warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	return summary{Correct: len(bad) == 0, Attempted: attempted, Failed: failed, Metrics: rec.Metrics}, rec, nil
}

// maxQueueDepth is the deepest admission queue among the fleet's serve
// schedulers, or 0 when stats are unavailable.
func maxQueueDepth(f *fleet) int {
	deepest := 0
	for _, u := range f.servers() {
		if s, err := serverStats(u, f.model); err == nil && s.QueueDepth > deepest {
			deepest = s.QueueDepth
		}
	}
	return deepest
}
