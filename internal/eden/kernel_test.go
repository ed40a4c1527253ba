package eden

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/dnn"
	"repro/internal/dram"
	"repro/internal/errormodel"
	"repro/internal/memctrl"
	"repro/internal/quant"
	"repro/internal/tensor"
)

// oracleCorrect is the bounding logic applied one value at a time: decode,
// bound, re-encode what the policy changed.
func oracleCorrect(b *memctrl.BoundingLogic, q *quant.QTensor, bounds memctrl.Bounds) {
	if b.Policy == memctrl.Off {
		return
	}
	for i := 0; i < q.NumValues(); i++ {
		v := q.Value(i)
		if c := b.CorrectValue(v, bounds); c != v || v != v {
			q.SetValue(i, c)
		}
	}
}

// oracleCorrupt is the corruption pipeline composed from its parts: a
// fresh quant.Quantize, injection over a freshly enumerated weak-cell list,
// oracleCorrect, then dequantization into a fresh tensor. It draws offsets
// from s and counts corrections in s.Logic, so a twin corruptor driven
// through the kernel must end with equal counts. It returns the output and
// the corrupted code image (nil when t passes through).
func oracleCorrupt(s *SoftwareDRAM, t *tensor.Tensor, id string) (*tensor.Tensor, *quant.QTensor) {
	ber := s.berFor(id)
	if ber <= 0 && !s.ForceQuant {
		return t, nil
	}
	q := quant.Quantize(t, s.Prec)
	if ber > 0 {
		scaled := s.Model.ScaledTo(ber)
		inj := errormodel.Injector{Model: scaled}
		inj.SetPass(s.passCount)
		off := s.offsetFor(id, q.NumBits())
		if scaled.Kind == errormodel.Model0 && scaled.P >= 1 {
			inj.InjectUniform(q, off)
		} else {
			inj.InjectWeak(q, off, inj.WeakPositions(q.NumBits(), off))
		}
		if b, ok := s.Bounds[id]; ok {
			oracleCorrect(&s.Logic, q, b)
		} else if s.Policy != memctrl.Off {
			oracleCorrect(&s.Logic, q, memctrl.FromTensor(t, 1.5))
		}
	}
	out := tensor.New(t.Shape()...)
	q.DequantizeInto(out.Data)
	return out, q
}

// sameBits reports the first index at which a and b differ bitwise, or -1.
func sameBits(a, b []float32) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// kernelTensors returns the edge-value inputs of the kernel property test.
func kernelTensors() []*tensor.Tensor {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	sub := math.Float32frombits(1)
	var ts []*tensor.Tensor
	add := func(data ...float32) { ts = append(ts, tensor.FromSlice(data, 1, len(data))) }
	// max|x| = 2^(b-1)-1 makes the scale 1, so the halves are exact
	// rounding ties at that precision; 3.9 lies beyond the ±2 calibrated
	// bounds, as does the maximum itself.
	for _, mc := range []float32{32767, 127, 7} {
		add(mc, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, negZero, sub, -sub, 3.9, -mc)
	}
	add(make([]float32, 37)...)
	add(sub, -sub, 2*sub, negZero)
	add(1, nan, -2, 0.25)
	add(1, inf, -3, 0)
	add(-inf, 2, negZero)
	r := tensor.NewRNG(0xFEED)
	uniform := tensor.New(1, 2000)
	uniform.FillUniform(r, -3, 3)
	ts = append(ts, uniform)
	raw := make([]float32, 512)
	for i := range raw {
		raw[i] = math.Float32frombits(uint32(r.Uint64()))
	}
	add(raw...)
	return ts
}

// TestKernelMatchesOracle pins the fused corruption kernel to the composed
// oracle, bit for bit, in its output values, its code image and its
// correction count, across precisions, policies, calibrated and fallback
// bounds, the all-weak and weak-list injection paths, and forced
// quantization at zero BER. Each corruptor corrupts every input over two
// passes, so its cached weak lists, scaled models and reused code buffer
// are all exercised.
func TestKernelMatchesOracle(t *testing.T) {
	models := map[string]*errormodel.Model{
		"uniform": errormodel.Uniform(0.02),
		"weak":    {Kind: errormodel.Model0, Seed: 5, RowBits: 4096, P: 0.4, FA: 0.05},
	}
	type input struct {
		id string
		x  *tensor.Tensor
	}
	var inputs []input
	for i, x := range kernelTensors() {
		inputs = append(inputs, input{fmt.Sprintf("ifm:t%d", i), x})
	}
	// One data ID at zero BER: forced quantization alone, uncorrected.
	inputs = append(inputs, input{"ifm:quant-only", inputs[len(inputs)-2].x})
	for _, mname := range []string{"uniform", "weak"} {
		for _, prec := range quant.Precisions {
			for _, pol := range []memctrl.Policy{memctrl.Zero, memctrl.Saturate, memctrl.Off} {
				for _, calibrated := range []bool{true, false} {
					name := fmt.Sprintf("%s/%v/%v/calibrated=%v", mname, prec, pol, calibrated)
					base := NewSoftwareDRAM(models[mname], prec)
					base.SetPolicy(pol)
					base.BER = 0.02
					base.ForceQuant = true
					base.BERByData = map[string]float64{"ifm:quant-only": 0}
					if calibrated {
						for _, in := range inputs {
							base.Bounds[in.id] = memctrl.Bounds{Lo: -2, Hi: 2}
						}
					}
					fresh, inPlace, oracle := base.Clone(3), base.Clone(3), base.Clone(3)
					for pass := 0; pass < 2; pass++ {
						for i, in := range inputs {
							id, x := in.id, in.x
							want, wantQ := oracleCorrupt(oracle, x, id)
							got := fresh.corruptTensor(x, id)
							if j := sameBits(got.Data, want.Data); j >= 0 {
								t.Fatalf("%s input %d pass %d: fresh value %d = %v, oracle %v", name, i, pass, j, got.Data[j], want.Data[j])
							}
							y := x.Clone()
							out, q := inPlace.corruptInto(y, id, true)
							if out != y {
								t.Fatalf("%s input %d: in-place kernel returned a new tensor", name, i)
							}
							if j := sameBits(y.Data, want.Data); j >= 0 {
								t.Fatalf("%s input %d pass %d: in-place value %d = %v, oracle %v", name, i, pass, j, y.Data[j], want.Data[j])
							}
							for j := range wantQ.Codes {
								if q.Codes[j] != wantQ.Codes[j] {
									t.Fatalf("%s input %d pass %d: code %d = %#x, oracle %#x", name, i, pass, j, q.Codes[j], wantQ.Codes[j])
								}
							}
						}
						fresh.NextPass()
						inPlace.NextPass()
						oracle.NextPass()
					}
					if fresh.Logic.Corrections != oracle.Logic.Corrections || inPlace.Logic.Corrections != oracle.Logic.Corrections {
						t.Fatalf("%s: corrections fresh %d, in place %d, oracle %d", name,
							fresh.Logic.Corrections, inPlace.Logic.Corrections, oracle.Logic.Corrections)
					}
					if calibrated && pol != memctrl.Off && oracle.Logic.Corrections == 0 {
						t.Fatalf("%s: no value was corrected; the test does not reach the bounding logic", name)
					}
				}
			}
		}
	}
}

// oracleDevice is DeviceDRAM's round trip composed from its parts: a
// fresh quant.Quantize, the module write and read-back, oracleCorrect and
// dequantization into a fresh tensor.
func oracleDevice(c *DeviceDRAM, t *tensor.Tensor, id string) (*tensor.Tensor, *quant.QTensor) {
	q := quant.Quantize(t, c.Prec)
	img := q.Pack()
	addr, err := c.place(id, len(img))
	if err != nil {
		addr = 0
	}
	n := min(len(img), c.Device.Capacity()-addr)
	c.Device.Write(addr, img[:n])
	copy(img[:n], c.Device.Read(addr, n))
	q.Unpack(img)
	if b, ok := c.Bounds[id]; ok {
		oracleCorrect(&c.Logic, q, b)
	} else if c.Policy != memctrl.Off {
		oracleCorrect(&c.Logic, q, memctrl.FromTensor(t, 1.5))
	}
	out := tensor.New(t.Shape()...)
	q.DequantizeInto(out.Data)
	return out, q
}

// TestDeviceKernelMatchesOracle pins DeviceDRAM's fused bound+dequantize
// pass to the composed oracle on twin stressed devices, in both
// destinations and in the correction count.
func TestDeviceKernelMatchesOracle(t *testing.T) {
	inputs := kernelTensors()
	for _, prec := range []quant.Precision{quant.FP32, quant.Int8, quant.Int4} {
		for _, pol := range []memctrl.Policy{memctrl.Zero, memctrl.Saturate} {
			for _, calibrated := range []bool{true, false} {
				name := fmt.Sprintf("%v/%v/calibrated=%v", prec, pol, calibrated)
				mk := func() *DeviceDRAM {
					d := dram.NewDevice(dram.DefaultGeometry(), dram.Vendors()[0], 4)
					op := dram.Nominal()
					op.VDD = 0.95
					d.SetOperatingPoint(op)
					c := NewDeviceDRAM(d, prec)
					c.Policy, c.Logic.Policy = pol, pol
					if calibrated {
						for i := range inputs {
							c.Bounds[fmt.Sprintf("ifm:t%d", i)] = memctrl.Bounds{Lo: -2, Hi: 2}
						}
					}
					return c
				}
				kernel, oracle := mk(), mk()
				for i, x := range inputs {
					id := fmt.Sprintf("ifm:t%d", i)
					want, wantQ := oracleDevice(oracle, x, id)
					inPlace := i%2 == 1
					y := x
					if inPlace {
						y = x.Clone()
					}
					got, q := kernel.corruptInto(y, id, inPlace)
					if j := sameBits(got.Data, want.Data); j >= 0 {
						t.Fatalf("%s input %d: value %d = %v, oracle %v", name, i, j, got.Data[j], want.Data[j])
					}
					for j := range wantQ.Codes {
						if q.Codes[j] != wantQ.Codes[j] {
							t.Fatalf("%s input %d: code %d = %#x, oracle %#x", name, i, j, q.Codes[j], wantQ.Codes[j])
						}
					}
				}
				if kernel.Logic.Corrections != oracle.Logic.Corrections {
					t.Fatalf("%s: corrections %d, oracle %d", name, kernel.Logic.Corrections, oracle.Logic.Corrections)
				}
			}
		}
	}
}

// TestKernelBufferReuse: one pooled clone corrupting a large tensor and
// then a smaller one — under another data ID, and under the same ID as a
// partial batch would — must match clones of a fresh source that only ever
// saw the smaller tensor, so no stale codes or weak cells leak from the
// reused buffers and caches. The layout is pinned so offsets do not depend
// on which tensors a clone saw first.
func TestKernelBufferReuse(t *testing.T) {
	r := tensor.NewRNG(0xB0F)
	big, small := tensor.New(1, 3, 32, 32), tensor.New(1, 4, 5, 5)
	big.FillUniform(r, -4, 4)
	small.FillUniform(r, -1, 1)
	for _, m := range []*errormodel.Model{
		errormodel.Uniform(0.05),
		{Kind: errormodel.Model0, Seed: 9, RowBits: 4096, P: 0.4, FA: 0.1},
	} {
		mk := func() *SoftwareDRAM {
			s := NewSoftwareDRAM(m, quant.Int8)
			s.SetLayout(map[string]int{"ifm:big": 0, "ifm:small": 1 << 16, "ifm:shrink": 2 << 16}, 3<<16)
			s.Bounds["ifm:small"] = memctrl.Bounds{Lo: -0.5, Hi: 0.5}
			return s
		}
		pool := NewClonePool(mk())
		pool.Prewarm(1)
		for _, pass := range []uint64{4, 11, 4} {
			c := pool.Get(pass).(*SoftwareDRAM)
			for _, id := range []string{"ifm:small", "ifm:shrink"} {
				c.corruptInto(big.Clone(), "ifm:big", true)
				c.corruptInto(big.Clone(), "ifm:shrink", true)
				got, _ := c.corruptInto(small.Clone(), id, true)
				want, _ := mk().Clone(pass).corruptInto(small.Clone(), id, true)
				if j := sameBits(got.Data, want.Data); j >= 0 {
					t.Fatalf("P=%v pass %d %s: pooled value %d = %v, fresh %v", m.P, pass, id, j, got.Data[j], want.Data[j])
				}
			}
			pool.Put(c)
		}
	}
}

// vggIFMs returns the zoo's VGG-16 and the input feature map each of its
// layers sees in a clean forward pass of one random sample.
func vggIFMs(tb testing.TB) (*dnn.Network, []*tensor.Tensor) {
	tb.Helper()
	net, err := dnn.BuildModel("VGG-16")
	if err != nil {
		tb.Fatal(err)
	}
	x := tensor.New(1, net.InC, net.InH, net.InW)
	x.FillUniform(tensor.NewRNG(0x16), -1, 1)
	ifms := make([]*tensor.Tensor, len(net.Layers))
	net.Forward(x, false, func(i int, l dnn.Layer, t *tensor.Tensor) *tensor.Tensor {
		ifms[i] = t.Clone()
		return t
	})
	return net, ifms
}

// servedCorruptor mirrors a served int8 artifact's corruptor: a Model-0
// fit with P < 1, so the weak-list path runs, at a serving BER of 5e-5,
// forced quantization and IFM bounds calibrated from the clean pass.
func servedCorruptor(net *dnn.Network, ifms []*tensor.Tensor) *SoftwareDRAM {
	m := &errormodel.Model{Kind: errormodel.Model0, Seed: 0xA, RowBits: 16384, P: 0.4, FA: 2e-4}
	s := NewSoftwareDRAM(m, quant.Int8)
	s.BER = 5e-5
	s.ForceQuant = true
	for i, l := range net.Layers {
		s.Bounds[IFMID(l.Name())] = memctrl.FromTensor(ifms[i], 1.5)
	}
	return s
}

// TestIFMHookInPlaceAllocs: once warmed, a clone's in-place hook corrupts
// every VGG-16 IFM without a single heap allocation.
func TestIFMHookInPlaceAllocs(t *testing.T) {
	net, ifms := vggIFMs(t)
	hook := servedCorruptor(net, ifms).Clone(1).IFMHookInPlace()
	for li, l := range net.Layers {
		x := ifms[li].Clone()
		hook(li, l, x) // warm: offset, weak list, scaled model, code buffer
		allocs := testing.AllocsPerRun(10, func() {
			copy(x.Data, ifms[li].Data)
			hook(li, l, x)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per in-place hook call, want 0", l.Name(), allocs)
		}
	}
}

// BenchmarkIFMHook times one warmed clone's in-place hook on each VGG-16
// layer's IFM, as the fused batch path runs it per sample. Each iteration
// first restores the clean IFM (a copy, small next to the hook) so the
// corruption never compounds.
func BenchmarkIFMHook(b *testing.B) {
	net, ifms := vggIFMs(b)
	hook := servedCorruptor(net, ifms).Clone(1).IFMHookInPlace()
	for li, l := range net.Layers {
		b.Run(l.Name(), func(b *testing.B) {
			x := ifms[li].Clone()
			hook(li, l, x)
			b.SetBytes(int64(4 * x.Size()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(x.Data, ifms[li].Data)
				hook(li, l, x)
			}
		})
	}
}

// TestSharedWeakCellsConcurrent: clones of one corruptor share its
// weak-cell cache across goroutines. Corrupting from many goroutines at
// once — spans growing and shrinking per data ID, so lists are computed,
// replaced and cut concurrently — must match serial corruption through
// corruptors that each own a fresh cache. Run it under -race.
func TestSharedWeakCellsConcurrent(t *testing.T) {
	m := &errormodel.Model{Kind: errormodel.Model0, Seed: 3, RowBits: 4096, P: 0.4, FA: 0.05}
	mk := func() *SoftwareDRAM {
		s := NewSoftwareDRAM(m, quant.Int8)
		s.SetLayout(map[string]int{"ifm:a": 0, "ifm:b": 1 << 16}, 2<<16)
		return s
	}
	r := tensor.NewRNG(0x5EED)
	xs := []*tensor.Tensor{tensor.New(1, 500), tensor.New(1, 2000), tensor.New(1, 64)}
	for _, x := range xs {
		x.FillUniform(r, -1, 1)
	}
	ids := []string{"ifm:a", "ifm:b"}
	run := func(c *SoftwareDRAM) [][]float32 {
		var outs [][]float32
		for _, id := range ids {
			for _, x := range xs {
				outs = append(outs, c.corruptTensor(x, id).Data)
			}
		}
		return outs
	}
	const n = 8
	want := make([][][]float32, n)
	for g := range want {
		want[g] = run(mk().Clone(uint64(g)))
	}
	src := mk()
	got := make([][][]float32, n)
	done := make(chan struct{})
	for g := 0; g < n; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			got[g] = run(src.Clone(uint64(g)))
		}(g)
	}
	for g := 0; g < n; g++ {
		<-done
	}
	for g := range want {
		for k := range want[g] {
			if j := sameBits(got[g][k], want[g][k]); j >= 0 {
				t.Fatalf("goroutine %d tensor %d value %d: shared cache %v, own cache %v", g, k, j, got[g][k][j], want[g][k][j])
			}
		}
	}
}
