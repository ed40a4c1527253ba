package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
	"repro/internal/dnn"
	"repro/internal/eden"
	"repro/internal/parallel"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// replayModel is a network and backend whose layers every traced run
// replays, keyed by the prefix its metrics carry. Every workload replays
// all of them, so the per-layer metric set is the same on each.
type replayModel struct {
	key, model, backend string
	// kernelsOnly limits the metrics to the whole calls and the layers
	// that run the backend's kernels: the hooks and the other layers do
	// the same work as on the float backend, measured by another replay.
	kernelsOnly bool
}

var replayModels = []replayModel{
	{key: "vgg16", model: "VGG-16", backend: "gemm"},
	{key: "vgg16_qgemm", model: "VGG-16", backend: "qgemm", kernelsOnly: true},
	{key: "lenet", model: "LeNet", backend: "gemm"},
}

// timesLayer reports whether the replay reports l's Forward times. Flatten
// only reshapes, so its time would be the span's own cost.
func (rm replayModel) timesLayer(l dnn.Layer) bool {
	if rm.kernelsOnly {
		return len(l.Params()) > 0
	}
	_, reshape := l.(*dnn.Flatten)
	return !reshape
}

// replayBatch is the fused batch size replayed: a full micro-batch.
const replayBatch = 16

type metricSpec struct{ name, unit, better string }

// layerMetricSpecs lists the traced run's metrics. Layer names come from
// the zoo networks' net.Layers, never from hard-coded shapes.
func layerMetricSpecs() []metricSpec {
	var out []metricSpec
	for _, rm := range replayModels {
		net, err := dnn.BuildModel(rm.model)
		if err != nil {
			panic(err) // the zoo always builds its own models
		}
		for _, batch := range []string{"b1", "b16"} {
			for _, l := range net.Layers {
				if rm.timesLayer(l) {
					out = append(out, metricSpec{"dnn." + rm.key + "." + l.Name() + "." + batch + "_ms", "ms", "lower"})
				}
			}
		}
		if !rm.kernelsOnly {
			for _, l := range net.Layers {
				out = append(out, metricSpec{"eden." + rm.key + "." + l.Name() + ".hook_ms", "ms", "lower"})
			}
		}
		out = append(out,
			metricSpec{"dnn." + rm.key + ".forward_b1_ms", "ms", "lower"},
			metricSpec{"dnn." + rm.key + ".forward_b16_ms", "ms", "lower"})
		if !rm.kernelsOnly {
			out = append(out, metricSpec{"eden." + rm.key + ".hook_share", "ratio", "lower"})
		}
	}
	return append(out,
		metricSpec{"eden.deploy_s", "s", "lower"},
		metricSpec{"eden.corrupt_weights_ms", "ms", "lower"},
		metricSpec{"serve.ready_s", "s", "lower"},
		metricSpec{"serve.mean_batch", "count", "higher"},
		metricSpec{"serve.busy_frac", "ratio", "lower"},
		metricSpec{"serve.server_p50_ms", "ms", "lower"},
		metricSpec{"serve.http_overhead_p50_ms", "ms", "lower"},
		metricSpec{"serve.wire_encode_us", "us", "lower"},
		metricSpec{"serve.wire_decode_us", "us", "lower"},
		metricSpec{"cluster.plan_ms", "ms", "lower"},
		metricSpec{"cluster.stage0.mean_batch", "count", "higher"},
		metricSpec{"cluster.stage1.mean_batch", "count", "higher"},
		metricSpec{"cluster.stage0.busy_frac", "ratio", "lower"},
		metricSpec{"cluster.stage1.busy_frac", "ratio", "lower"},
		metricSpec{"cluster.stage0.server_p50_ms", "ms", "lower"},
		metricSpec{"cluster.stage1.server_p50_ms", "ms", "lower"},
		metricSpec{"cluster.hop_overhead_p50_ms", "ms", "lower"},
		metricSpec{"gen.lag_p99_ms", "ms", "lower"},
		metricSpec{"trace.overhead_frac", "ratio", "lower"},
	)
}

// traceRecord is the full account of a traced run.
type traceRecord struct {
	Meta     runMeta           `json:"meta"`
	Phases   []*phase          `json:"phases"`
	Replay   []replayCheck     `json:"replay"`
	Verified int               `json:"verified"`
	Mismatch []keptOutput      `json:"mismatched,omitempty"`
	Metrics  map[string]metric `json:"metrics"`
}

// replayCheck records whether a replay reproduced the served bits, and
// how the per-layer sum compares with the whole forward call.
type replayCheck struct {
	Model        string  `json:"model"`
	Reference    string  `json:"reference"`
	BitsOK       bool    `json:"bits_ok"`
	LayerSumB16  float64 `json:"layer_sum_b16_ms"`
	ForwardB16   float64 `json:"forward_b16_ms"`
	LayerSumB1   float64 `json:"layer_sum_b1_ms"`
	ForwardB1    float64 `json:"forward_b1_ms"`
	ReplayPasses int     `json:"replay_passes"`
}

// runTraced measures the per-module breakdown. Spans are recorded by this
// file's code around calls into each module's public functions; the
// serving processes themselves run untouched.
func (b *bench) runTraced(seconds float64) (summary, any, error) {
	rec := &traceRecord{Meta: b.meta}
	m := map[string]metric{}
	setups, err := b.setupAll()
	if err != nil {
		return summary{}, nil, err
	}
	last := setups[len(setups)-1]
	var deployS, readyS []float64
	for _, s := range setups {
		deployS = append(deployS, s.deployS)
		readyS = append(readyS, s.readyS)
	}
	m["eden.deploy_s"] = metric{median(deployS), "s"}
	m["serve.ready_s"] = metric{median(readyS), "s"}

	// The workload's own topology: untraced then traced closed loops give
	// the tracing overhead; a short open loop gives the generator's lag.
	phaseDur := phaseSeconds(seconds, 0.15, 0, 0)
	g := newLoadgen(last.fleet.front, last.fleet.model, b.inputs, b.tm.Net.Classes, seedBase(b.seed))
	defer g.close()
	rec.Phases = append(rec.Phases, g.closedLoop("warmup", inFlight, time.Second))
	untraced := g.closedLoop("closed", inFlight, phaseDur)
	rec.Phases = append(rec.Phases, untraced)
	own, err := b.tracedTopology(g, last.fleet, phaseDur, m)
	if err != nil {
		last.fleet.stop()
		return summary{}, nil, err
	}
	rec.Phases = append(rec.Phases, own)
	m["trace.overhead_frac"] = metric{1 - own.QPS/untraced.QPS, "ratio"}
	lagRate := roundRate(b.w.LowFrac * untraced.QPS)
	lag := g.openLoop("lag", lagRate, phaseSeconds(seconds, 0.1, lagRate, latSamples), nil)
	rec.Phases = append(rec.Phases, lag)
	m["gen.lag_p99_ms"] = metric{lag.LagP99Ms, "ms"}
	last.fleet.stop()

	// The other topology of the same artifact, so that serve.* and
	// cluster.* describe both on every workload.
	otherStages := 2
	if b.w.Stages > 0 {
		otherStages = 0
	}
	other, err := launchFleet(last.dep, last.path, b.w.Backend, otherStages)
	if err != nil {
		return summary{}, nil, err
	}
	og := newLoadgen(other.front, other.model, b.inputs, b.tm.Net.Classes, seedBase(b.seed)+1<<40)
	ow := og.closedLoop("other_warmup", inFlight, time.Second)
	op, err := b.tracedTopology(og, other, phaseDur, m)
	other.stop()
	og.close()
	if err != nil {
		return summary{}, nil, err
	}
	op.Name = "other_topology"
	rec.Phases = append(rec.Phases, ow, op)

	// Bit check of the served subset of both topologies, as in the
	// end-to-end run.
	ref, err := newReference(last.dep, b.backend)
	if err != nil {
		return summary{}, nil, err
	}
	kept := append(append([]keptOutput(nil), g.kept...), og.kept...)
	bad, err := ref.verifyKept(b.inputs, kept)
	ref.close()
	if err != nil {
		return summary{}, nil, err
	}
	rec.Verified, rec.Mismatch = len(kept), bad

	// Module-level costs measured from outside on the loaded artifact.
	loaded, err := eden.LoadDeploymentFile(last.path)
	if err != nil {
		return summary{}, nil, err
	}
	if err := b.setupCosts(loaded, m); err != nil {
		return summary{}, nil, err
	}

	// Layer replay of every replay model; the workload's own model and
	// backend are checked against the bits its serving processes returned.
	replayOK := true
	for _, rm := range replayModels {
		backend, err := compute.ByName(rm.backend)
		if err != nil {
			return summary{}, nil, err
		}
		var path string
		var served []keptOutput
		if rm.model == b.w.Model && rm.backend == b.w.Backend {
			path, served = last.path, g.kept
		} else {
			dep, err := eden.Deploy(rm.model, deployConfig(backend))
			if err != nil {
				return summary{}, nil, err
			}
			path = fmt.Sprintf("%s/replay-%s.eden", b.dir, rm.key)
			if err := dep.SaveFile(path); err != nil {
				return summary{}, nil, err
			}
		}
		chk, err := b.replay(rm, backend, path, served, m)
		if err != nil {
			return summary{}, nil, err
		}
		rec.Replay = append(rec.Replay, chk)
		replayOK = replayOK && chk.BitsOK
	}

	for _, s := range layerMetricSpecs() {
		if _, ok := m[s.name]; !ok {
			return summary{}, nil, fmt.Errorf("traced run did not measure %s", s.name)
		}
	}
	rec.Metrics = m
	attempted, failed := 0, len(bad)
	for _, p := range rec.Phases {
		attempted += p.Sent
		failed += p.failed()
	}
	return summary{Correct: len(bad) == 0 && replayOK, Attempted: attempted, Failed: failed, Metrics: m}, rec, nil
}

// tracedTopology runs a traced closed loop on f and fills the serve.*
// metrics (standalone fleet) or the cluster.* metrics (stage fleet) from
// the client spans and the schedulers' /v1/stats before and after.
func (b *bench) tracedTopology(g *loadgen, f *fleet, d time.Duration, m map[string]metric) (*phase, error) {
	tr := b.tracer
	root := tr.begin("phase.traced_closed", 0, 0)
	g.onResult = func(idx int64, start, end time.Time, pr *serve.PredictResponse) {
		id := tr.record("client.request", root, idx, start, end)
		server := time.Duration(pr.LatencyMs * float64(time.Millisecond))
		tr.record("server.request", id, idx, end.Add(-server), end)
	}
	servers := f.servers()
	before := make([]serve.Snapshot, len(servers))
	for i, u := range servers {
		s, err := serverStats(u, f.model)
		if err != nil {
			return nil, err
		}
		before[i] = s
	}
	p := g.closedLoop("closed_traced", inFlight, d)
	g.onResult = nil
	tr.end(root)
	after := make([]serve.Snapshot, len(servers))
	for i, u := range servers {
		s, err := serverStats(u, f.model)
		if err != nil {
			return nil, err
		}
		after[i] = s
	}
	// Only this phase's request spans count.
	var clientSelf, serverMs []float64
	self := selfTimes(tr.spans)
	mine := map[int64]bool{}
	for _, s := range tr.spans {
		switch {
		case s.Name == "client.request" && s.Parent == root:
			mine[s.ID] = true
			clientSelf = append(clientSelf, float64(self[s.ID])/1e6)
		case s.Name == "server.request" && mine[s.Parent]:
			serverMs = append(serverMs, float64(s.End-s.Start)/1e6)
		}
	}
	if len(f.stages) == 0 {
		a, z := before[0], after[0]
		m["serve.mean_batch"] = metric{meanBatch(a, z), "count"}
		m["serve.busy_frac"] = metric{busySeconds(a, z) / p.Seconds, "ratio"}
		p.Admission = &admission{Shed: z.Shed - a.Shed, Expired: z.Expired - a.Expired}
		m["serve.server_p50_ms"] = metric{median(serverMs), "ms"}
		m["serve.http_overhead_p50_ms"] = metric{median(clientSelf), "ms"}
		return p, nil
	}
	stageSum := 0.0
	for k := range servers {
		a, z := before[k], after[k]
		m[fmt.Sprintf("cluster.stage%d.mean_batch", k)] = metric{meanBatch(a, z), "count"}
		m[fmt.Sprintf("cluster.stage%d.busy_frac", k)] = metric{busySeconds(a, z) / p.Seconds, "ratio"}
		m[fmt.Sprintf("cluster.stage%d.server_p50_ms", k)] = metric{z.P50Ms, "ms"}
		stageSum += z.P50Ms
	}
	m["cluster.hop_overhead_p50_ms"] = metric{p.P50Ms - stageSum, "ms"}
	return p, nil
}

// meanBatch is the mean batch size between two snapshots.
func meanBatch(a, z serve.Snapshot) float64 {
	if z.Batches == a.Batches {
		return 0
	}
	return float64(z.Requests-a.Requests) / float64(z.Batches-a.Batches)
}

// busySeconds is the compute time a scheduler spent between snapshots a
// and z, recovered from BusyFrac × window where window = requests / QPS.
func busySeconds(a, z serve.Snapshot) float64 {
	busy := func(s serve.Snapshot) float64 {
		if s.QPS == 0 {
			return 0
		}
		return s.BusyFrac * float64(s.Requests) / s.QPS
	}
	return busy(z) - busy(a)
}

// setupCosts times weight corruption, the cluster plan and the activation
// wire codec on the loaded artifact.
func (b *bench) setupCosts(dep *eden.Deployment, m map[string]metric) error {
	tr := b.tracer
	var corrupt, plan []float64
	var p cluster.Plan
	for rep := int64(0); rep < 5; rep++ {
		net, err := dep.CloneNet()
		if err != nil {
			return err
		}
		net.SetBackend(b.backend)
		adoptQuantized(net, dep)
		sp := tr.begin("eden.corrupt_weights", 0, rep)
		t0 := time.Now()
		dep.NewCorruptor().CorruptWeights(net)
		corrupt = append(corrupt, float64(time.Since(t0))/1e6)
		tr.end(sp)

		sp = tr.begin("cluster.plan", 0, rep)
		t0 = time.Now()
		p, err = cluster.PlanFor(dep, cluster.PartitionConfig{Stages: 2})
		plan = append(plan, float64(time.Since(t0))/1e6)
		tr.end(sp)
		if err != nil {
			return err
		}
	}
	m["eden.corrupt_weights_ms"] = metric{median(corrupt), "ms"}
	m["cluster.plan_ms"] = metric{median(plan), "ms"}

	slices, err := cluster.SliceAll(dep, p)
	if err != nil {
		return err
	}
	x := tensor.New(slices[1].Stage.InDims...)
	x.FillUniform(tensor.NewRNG(b.seed), -1, 1)
	var enc, dec []float64
	var buf bytes.Buffer
	for rep := int64(0); rep < 2000; rep++ {
		buf.Reset()
		sp := tr.begin("serve.wire_encode", 0, rep)
		t0 := time.Now()
		err := serve.EncodeActivation(&buf, x, uint64(rep))
		enc = append(enc, float64(time.Since(t0))/1e3)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("serve.wire_decode", 0, rep)
		t0 = time.Now()
		y, _, err := serve.DecodeActivation(bytes.NewReader(buf.Bytes()), x.Size())
		dec = append(dec, float64(time.Since(t0))/1e3)
		tr.end(sp)
		if err != nil {
			return err
		}
		if !sameBits(x.Data, y.Data) {
			return fmt.Errorf("activation wire round trip changed bits")
		}
	}
	m["serve.wire_encode_us"] = metric{median(enc), "us"}
	m["serve.wire_decode_us"] = metric{median(dec), "us"}
	return nil
}

// adoptQuantized mirrors serving: networks on a quantized backend compute
// from int8 weight images, adopted before weight corruption.
func adoptQuantized(net *dnn.Network, dep *eden.Deployment) {
	if _, ok := net.Backend().(compute.QuantBackend); ok {
		net.AdoptQuantizedWeights(dep.Prec)
	}
}

// inPlacer is the corruptor clone capability the fused serving path uses.
type inPlacer interface{ IFMHookInPlace() dnn.IFMHook }

// replay rebuilds the served network from the artifact at path exactly as
// serving does (load, clone, backend and int8 adoption, weight corruption,
// clone pool) and times each layer's Forward and corruption hooks at batch
// 1 and 16, plus the whole ForwardBatch and ForwardBatchFused calls. Its
// outputs must equal the served bits for the same (input, seed): served,
// when given, holds outputs returned by the serving processes; otherwise
// in-process serving of the artifact is the reference.
func (b *bench) replay(rm replayModel, backend compute.Backend, path string, served []keptOutput, m map[string]metric) (replayCheck, error) {
	tr := b.tracer
	key := rm.key
	chk := replayCheck{Model: key, Reference: "serving processes"}
	dep, err := eden.LoadDeploymentFile(path)
	if err != nil {
		return chk, err
	}
	net, err := dep.CloneNet()
	if err != nil {
		return chk, err
	}
	net.SetBackend(backend)
	adoptQuantized(net, dep)
	// The pool clones the corruptor that corrupted the weights, as serving
	// does: IFM offsets follow the weight offsets it assigned.
	corr := dep.NewCorruptor()
	corr.CorruptWeights(net)
	pool := eden.NewClonePool(corr)
	pool.Prewarm(replayBatch)

	// The replayed samples and the bits they must reproduce.
	inputs := b.inputs
	if net.InC*net.InH*net.InW != len(inputs[0]) {
		inputs = makeInputs(b.seed, 64, net)
	}
	samples := served
	if len(samples) > replayBatch {
		samples = samples[:replayBatch]
	}
	if len(samples) < replayBatch {
		chk.Reference = "in-process serving"
		ref, err := newReference(dep, backend)
		if err != nil {
			return chk, err
		}
		samples = nil
		for i := 0; i < replayBatch; i++ {
			seed := seedBase(b.seed) + 1<<41 + uint64(i)
			out, err := ref.predict(inputs[i], seed)
			if err != nil {
				ref.close()
				return chk, err
			}
			samples = append(samples, keptOutput{Input: i, Seed: seed, Output: out})
		}
		ref.close()
	}
	xs := make([]*tensor.Tensor, len(samples))
	for i, s := range samples {
		xs[i] = tensor.FromSlice(append([]float32(nil), inputs[s.Input]...), 1, net.InC, net.InH, net.InW)
	}
	ok := true
	check := func(outs [][]float32) {
		for i, s := range samples {
			ok = ok && sameBits(outs[i], s.Output)
		}
	}

	// Batch 16, layer by layer, as ForwardBatchFused runs it.
	passes := 0
	for rep := int64(0); rep < 20; rep++ {
		check(b.replayFused(key, net, pool, xs, samples, rep))
		passes++
	}
	// Batch 1, layer by layer, as Network.Forward runs it per sample.
	for rep := int64(0); rep < 4; rep++ {
		outs := make([][]float32, len(samples))
		for i, s := range samples {
			c := pool.Get(s.Seed)
			hook := c.IFMHook()
			sp := tr.begin("dnn."+key+".replay_b1", 0, rep)
			x := xs[i].Clone()
			for li, l := range net.Layers {
				hs := tr.begin("eden."+key+"."+l.Name()+".hook_b1", sp, rep)
				x = hook(li, l, x)
				tr.end(hs)
				fs := tr.begin("dnn."+key+"."+l.Name()+".b1", sp, rep)
				x = l.Forward(x, false)
				tr.end(fs)
			}
			tr.end(sp)
			pool.Put(c)
			outs[i] = x.Data
		}
		check(outs)
		passes++
	}
	// The whole calls, with hooks, as serving makes them.
	for rep := int64(0); rep < 20; rep++ {
		clones := make([]eden.Cloner, len(xs))
		opt := dnn.BatchOptions{
			HookFor: func(i int) dnn.IFMHook {
				clones[i] = pool.Get(samples[i].Seed)
				return clones[i].(inPlacer).IFMHookInPlace()
			},
			Done: func(i int) { pool.Put(clones[i]) },
		}
		in := make([]*tensor.Tensor, len(xs))
		for i := range xs {
			in[i] = xs[i].Clone()
		}
		sp := tr.begin("dnn."+key+".forward_b16", 0, rep)
		outs := net.ForwardBatchFused(in, opt)
		tr.end(sp)
		check(tensorData(outs))
		passes++
	}
	for rep := int64(0); rep < 4; rep++ {
		outs := make([][]float32, len(samples))
		for i, s := range samples {
			var c eden.Cloner
			opt := dnn.BatchOptions{
				HookFor: func(int) dnn.IFMHook { c = pool.Get(s.Seed); return c.IFMHook() },
				Done:    func(int) { pool.Put(c) },
			}
			sp := tr.begin("dnn."+key+".forward_b1", 0, rep)
			y := net.ForwardBatch([]*tensor.Tensor{xs[i].Clone()}, opt)
			tr.end(sp)
			outs[i] = y[0].Data
		}
		check(outs)
		passes++
	}

	self := selfByName(tr.spans)
	var hookSum, b16Sum, b1Sum float64
	for _, l := range net.Layers {
		base := key + "." + l.Name()
		b1 := median(self["dnn."+base+".b1"])
		b16 := median(self["dnn."+base+".b16"])
		hook := median(self["eden."+base+".hook"])
		if rm.timesLayer(l) {
			m["dnn."+base+".b1_ms"] = metric{b1, "ms"}
			m["dnn."+base+".b16_ms"] = metric{b16, "ms"}
		}
		if !rm.kernelsOnly {
			m["eden."+base+".hook_ms"] = metric{hook, "ms"}
		}
		hookSum += hook
		b16Sum += b16
		b1Sum += b1 + median(self["eden."+base+".hook_b1"])
	}
	if !rm.kernelsOnly {
		m["eden."+key+".hook_share"] = metric{hookSum / (hookSum + b16Sum), "ratio"}
	}
	m["dnn."+key+".forward_b16_ms"] = metric{median(self["dnn."+key+".forward_b16"]), "ms"}
	m["dnn."+key+".forward_b1_ms"] = metric{median(self["dnn."+key+".forward_b1"]), "ms"}
	chk.BitsOK = ok
	chk.LayerSumB16 = hookSum + b16Sum
	chk.ForwardB16 = m["dnn."+key+".forward_b16_ms"].Value
	chk.LayerSumB1 = b1Sum
	chk.ForwardB1 = m["dnn."+key+".forward_b1_ms"].Value
	chk.ReplayPasses = passes
	return chk, nil
}

// replayFused runs one batch-16 pass layer by layer the way
// ForwardBatchFused does — per-sample in-place hooks on slab views fanned
// across the worker pool, then one batched Forward — with a span around
// each module call.
func (b *bench) replayFused(key string, net *dnn.Network, pool *eden.ClonePool, xs []*tensor.Tensor, samples []keptOutput, rep int64) [][]float32 {
	tr := b.tracer
	n := len(xs)
	per := xs[0].Size()
	x := tensor.New(append([]int{n}, xs[0].Shape()[1:]...)...)
	for i, s := range xs {
		copy(x.Data[i*per:(i+1)*per], s.Data)
	}
	clones := make([]eden.Cloner, n)
	hooks := make([]dnn.IFMHook, n)
	for i := range hooks {
		clones[i] = pool.Get(samples[i].Seed)
		hooks[i] = clones[i].(inPlacer).IFMHookInPlace()
	}
	sp := tr.begin("dnn."+key+".replay_b16", 0, rep)
	for li, l := range net.Layers {
		hs := tr.begin("eden."+key+"."+l.Name()+".hook", sp, rep)
		span := x.Size() / n
		dims := append([]int{1}, x.Shape()[1:]...)
		parallel.ForEach(n, func(i int) {
			view := tensor.FromSlice(x.Data[i*span:(i+1)*span], dims...)
			if y := hooks[i](li, l, view); y != view {
				copy(x.Data[i*span:(i+1)*span], y.Data)
			}
		})
		tr.end(hs)
		fs := tr.begin("dnn."+key+"."+l.Name()+".b16", sp, rep)
		x = l.Forward(x, false)
		tr.end(fs)
	}
	tr.end(sp)
	for _, c := range clones {
		pool.Put(c)
	}
	span := x.Size() / n
	outs := make([][]float32, n)
	for i := range outs {
		outs[i] = append([]float32(nil), x.Data[i*span:(i+1)*span]...)
	}
	return outs
}

func tensorData(ts []*tensor.Tensor) [][]float32 {
	out := make([][]float32, len(ts))
	for i, t := range ts {
		out[i] = t.Data
	}
	return out
}
