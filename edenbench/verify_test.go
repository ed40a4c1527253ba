package main

import (
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/dnn"
	"repro/internal/eden"
)

func TestSameBitsCatchesOneBitFlip(t *testing.T) {
	a := []float32{1.5, -2.25, 0, float32(math.Inf(1))}
	b := append([]float32(nil), a...)
	if !sameBits(a, b) {
		t.Fatal("identical outputs reported different")
	}
	for i := range b {
		for bit := 0; bit < 32; bit++ {
			c := append([]float32(nil), a...)
			c[i] = math.Float32frombits(math.Float32bits(c[i]) ^ 1<<bit)
			if sameBits(a, c) {
				t.Fatalf("flip of bit %d in element %d not caught", bit, i)
			}
		}
	}
	// Bitwise, not numeric: +0 and -0 compare equal as floats but differ.
	if sameBits([]float32{0}, []float32{float32(math.Copysign(0, -1))}) {
		t.Error("+0 and -0 reported equal")
	}
	if sameBits(a, a[:3]) {
		t.Error("outputs of different length reported equal")
	}
}

func TestVerifierCatchesInjectedFlip(t *testing.T) {
	if testing.Short() {
		t.Skip("deploys LeNet")
	}
	dep, err := eden.Deploy("LeNet", deployConfig(compute.Gemm))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(dep, compute.Gemm)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.close()
	inputs := makeInputs(3, 4, dnn.MustPretrained("LeNet").Net)
	var kept []keptOutput
	for i := range inputs {
		out, err := ref.predict(inputs[i], uint64(100+i))
		if err != nil {
			t.Fatal(err)
		}
		kept = append(kept, keptOutput{Phase: "p", Idx: int64(i), Input: i, Seed: uint64(100 + i), Output: out})
	}
	bad, err := ref.verifyKept(inputs, kept)
	if err != nil || len(bad) != 0 {
		t.Fatalf("clean outputs: %d mismatches, err %v", len(bad), err)
	}
	kept[2].Output[1] = math.Float32frombits(math.Float32bits(kept[2].Output[1]) ^ 1)
	bad, err = ref.verifyKept(inputs, kept)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 || bad[0].Idx != 2 {
		t.Fatalf("one flipped bit: got mismatches %+v, want exactly request 2", bad)
	}
}
