package main

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/eden"
	"repro/internal/quant"
)

// workload is one serving configuration the benchmark measures, with the
// constants frozen for it.
type workload struct {
	Name    string `json:"name"`
	Why     string `json:"why"`
	Model   string `json:"model"`
	Backend string `json:"backend"`
	Stages  int    `json:"stages"` // 0 = one standalone process
	// LowFrac sets the fixed-rate phase of each round as a share of the
	// closed-loop throughput measured just before it in the same round: a
	// low rate, where batches are about 1.
	LowFrac float64 `json:"low_frac"`
	// LimitMs is the p99 latency limit of the SLO search.
	LimitMs float64 `json:"p99_limit_ms"`
	// LadderLo and LadderHi bound the SLO ladder; adjacent steps differ by
	// the factor ladderRatio. The search starts at the highest step at or
	// under SLOStartFrac of the run's closed-loop throughput.
	LadderLo     float64 `json:"ladder_lo"`
	LadderHi     float64 `json:"ladder_hi"`
	SLOStartFrac float64 `json:"slo_start_frac"`
}

// ladderRatio separates adjacent SLO ladder steps (under a tenth apart).
const ladderRatio = 1.05

// inFlight is the closed-loop concurrency: two full 16-request batches.
const inFlight = 32

var workloads = []workload{
	{
		Name: "vgg16-gemm",
		Why: "largest zoo CNN on the float gemm backend: kernel, forward-path and corruption-hook changes show here, " +
			"and the closed loop and low rate split batch-16 from batch-1 behaviour",
		Model: "VGG-16", Backend: "gemm",
		LowFrac: 0.3, LimitMs: 150, LadderLo: 50, LadderHi: 1200, SLOStartFrac: 1,
	},
	{
		Name: "lenet-cluster-k2",
		Why: "small LeNet cut into 2 stage processes behind a dispatcher: compute is light, so dispatcher, " +
			"hop, wire-codec and JSON changes show here and kernel or corruption changes should not",
		Model: "LeNet", Backend: "gemm", Stages: 2,
		LowFrac: 0.3, LimitMs: 50, LadderLo: 100, LadderHi: 3000, SLOStartFrac: 0.85,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// deployConfig is the reduced EDEN pipeline configuration every workload
// deploys with (no boosting rounds, a short characterization), the one the
// serving example uses.
func deployConfig(backend compute.Backend) eden.DeployConfig {
	cfg := eden.DefaultDeploy("A")
	cfg.Prec = quant.Int8
	cfg.Rounds = 0
	cfg.Char.MaxSamples = 30
	cfg.Char.Repeats = 1
	cfg.Char.SearchSteps = 5
	cfg.Backend = backend
	return cfg
}
