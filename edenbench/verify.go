package main

import (
	"context"
	"fmt"
	"math"

	"repro/internal/compute"
	"repro/internal/eden"
	"repro/internal/serve"
)

// sameBits reports whether two outputs are bit-for-bit equal.
func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// reference serves the unsliced artifact in process, one request per
// batch: the determinism contract says every served output equals its
// answer for the same (input, seed).
type reference struct {
	srv   *serve.Server
	model *serve.Model
}

func newReference(dep *eden.Deployment, backend compute.Backend) (*reference, error) {
	srv := serve.New(serve.Config{MaxBatch: 1})
	m, err := srv.Deploy(dep, serve.WithBackend(backend))
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("reference deploy: %w", err)
	}
	return &reference{srv: srv, model: m}, nil
}

func (r *reference) close() { r.srv.Close() }

func (r *reference) predict(input []float32, seed uint64) ([]float32, error) {
	res, err := r.model.Predict(context.Background(), input, seed)
	if err != nil {
		return nil, fmt.Errorf("reference predict: %w", err)
	}
	return res.Output, nil
}

// verifyKept checks every kept served output against the reference and
// returns the mismatching ones.
func (r *reference) verifyKept(inputs [][]float32, kept []keptOutput) ([]keptOutput, error) {
	var bad []keptOutput
	for _, k := range kept {
		want, err := r.predict(inputs[k.Input], k.Seed)
		if err != nil {
			return nil, err
		}
		if !sameBits(want, k.Output) {
			bad = append(bad, k)
		}
	}
	return bad, nil
}
