// Command edenbench is the repository's serving benchmark. It deploys an
// EDEN artifact, launches real serving processes (a standalone server, or
// pipeline stages behind a dispatcher), drives them over cleartext HTTP/2
// from one load generator, bit-checks a fixed subset of the answers
// against in-process serving, and prints every metric by name and unit.
//
//	bash edenbench/run.sh --workload vgg16-gemm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced per-module breakdown instead (see trace.go). The last line of
// standard output is one JSON object: correct, attempted, failed, metrics.
// A bit mismatch makes it exit non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/compute"
	"repro/internal/dnn"
	"repro/internal/tensor"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := serveMain(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "serve:", err)
			os.Exit(1)
		}
		return
	}
	work := flag.String("work", ".bench_build", "directory for artifacts, results and traces")
	name := flag.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "input and request-seed generator seed")
	seconds := flag.Float64("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 = traced per-module run instead of the end-to-end run")
	spread := flag.Bool("spread", false, "print each metric's median and quartile spread over the result records named as arguments, and exit")
	flag.Parse()
	if *spread {
		if err := printSpread(flag.Args()); err != nil {
			fmt.Fprintln(os.Stderr, "edenbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*work, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "edenbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.Name)
	}
	return out
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the benchmark's final output line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runMeta is recorded with every run.
type runMeta struct {
	Workload   workload  `json:"workload"`
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	CacheWarm  bool      `json:"pretrained_cache_warm"`
	Ladder     []float64 `json:"ladder"`
	Started    string    `json:"started"`
}

// bench is the state shared by both kinds of run.
type bench struct {
	w       workload
	meta    runMeta
	dir     string // this run's working directory, removed at exit
	backend compute.Backend
	tm      *dnn.TrainedModel
	inputs  [][]float32
	seed    uint64
	tracer  *tracer
}

func run(work, name string, seed uint64, seconds float64, traced bool) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	work, err = filepath.Abs(work)
	if err != nil {
		return err
	}
	dir := filepath.Join(work, "runs", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir) // artifacts are rebuilt every run
	backend, err := compute.ByName(w.Backend)
	if err != nil {
		return err
	}
	b := &bench{
		w:       w,
		dir:     dir,
		backend: backend,
		seed:    seed,
		tracer:  newTracer(traced),
		meta: runMeta{
			Workload: w, Seed: seed, Seconds: seconds, Traced: traced,
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			Ladder: ladder(w.LadderLo, w.LadderHi, ladderRatio), Started: time.Now().UTC().Format(time.RFC3339),
		},
	}
	// Filling the pretrained-model cache is not part of any measurement.
	b.meta.CacheWarm = pretrainedCached(w.Model)
	if b.tm, err = dnn.Pretrained(w.Model); err != nil {
		return err
	}
	b.inputs = makeInputs(seed, 64, b.tm.Net)

	var sum summary
	var record any
	if traced {
		sum, record, err = b.runTraced(seconds)
	} else {
		sum, record, err = b.runEndToEnd(seconds)
	}
	if err != nil {
		return err
	}
	names := make([]string, 0, len(sum.Metrics))
	for n := range sum.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-40s %14.4f %s\n", n, sum.Metrics[n].Value, sum.Metrics[n].Unit)
	}
	kind := "e2e"
	if traced {
		kind = "trace"
	}
	out := filepath.Join(work, "results", fmt.Sprintf("%s-seed%d-%s.json", w.Name, seed, kind))
	if err := writeJSON(out, record); err != nil {
		return err
	}
	fmt.Println("record:", out)
	if traced {
		spans := filepath.Join(work, "traces", fmt.Sprintf("%s-seed%d.json", w.Name, seed))
		if err := writeJSON(spans, b.tracer.spans); err != nil {
			return err
		}
		fmt.Println("spans:", spans)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !sum.Correct {
		return fmt.Errorf("served outputs differ from the reference; see %s", out)
	}
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// pretrainedCached reports whether the on-disk model cache already holds
// the named model (a cold cache trains it first, outside every clock).
func pretrainedCached(model string) bool {
	dir := os.Getenv("EDEN_MODEL_CACHE")
	if dir == "" {
		dir = filepath.Join(os.TempDir(), "eden-model-cache")
	}
	matches, _ := filepath.Glob(filepath.Join(dir, model+"-*.edenmdl")) // only ErrBadPattern, impossible here
	return len(matches) > 0
}

// printSpread reads run records (results/*.json) and prints, per metric,
// the median over the runs and the distance between the first and third
// quartiles as a share of the median: the spread a metric's bound in
// BENCHMARK.json must cover.
func printSpread(paths []string) error {
	values := map[string][]float64{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec struct{ Metrics map[string]metric }
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for name, m := range rec.Metrics {
			values[name] = append(values[name], m.Value)
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := values[n]
		if len(v) < 2 {
			return fmt.Errorf("%s: quartiles need at least two runs", n)
		}
		q, med := quartiles(v), median(v)
		fmt.Printf("%-40s runs %2d  median %12.4f  q1 %12.4f  q3 %12.4f  iqr/median %.4f\n", n, len(v), med, q[0], q[2], (q[2]-q[0])/med)
	}
	return nil
}

// makeInputs draws n inputs of the network's input shape from seed.
func makeInputs(seed uint64, n int, net *dnn.Network) [][]float32 {
	rng := tensor.NewRNG(seed ^ 0x5EED1A7E)
	out := make([][]float32, n)
	for i := range out {
		t := tensor.New(net.InC, net.InH, net.InW)
		t.FillUniform(rng, 0, 1)
		out[i] = t.Data
	}
	return out
}

// seedBase offsets every request seed of a run, so runs with different
// seeds draw different error streams.
func seedBase(seed uint64) uint64 {
	return tensor.NewRNG(seed^0xC0FFEE).Uint64() >> 16
}
