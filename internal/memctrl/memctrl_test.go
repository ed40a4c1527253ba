package memctrl

import (
	"math"
	"testing"

	"repro/internal/quant"
	"repro/internal/tensor"
)

func TestFromTensor(t *testing.T) {
	x := tensor.FromSlice([]float32{-2, 3}, 2)
	b := FromTensor(x, 1.5)
	if b.Lo != -4.5 || b.Hi != 4.5 {
		t.Fatalf("bounds %+v", b)
	}
	zero := tensor.New(4)
	bz := FromTensor(zero, 1.5)
	if bz.Hi <= 0 {
		t.Fatal("zero tensor should still get positive bounds")
	}
}

func TestZeroPolicy(t *testing.T) {
	b := &BoundingLogic{Policy: Zero}
	bounds := Bounds{Lo: -5, Hi: 5}
	if got := b.CorrectValue(3, bounds); got != 3 {
		t.Fatalf("in-range value altered: %v", got)
	}
	if got := b.CorrectValue(1e8, bounds); got != 0 {
		t.Fatalf("implausible value corrected to %v, want 0", got)
	}
	if got := b.CorrectValue(-1e8, bounds); got != 0 {
		t.Fatalf("negative implausible corrected to %v", got)
	}
	if b.Corrections != 2 {
		t.Fatalf("corrections = %d", b.Corrections)
	}
}

func TestSaturatePolicy(t *testing.T) {
	b := &BoundingLogic{Policy: Saturate}
	bounds := Bounds{Lo: -5, Hi: 5}
	if got := b.CorrectValue(1e8, bounds); got != 5 {
		t.Fatalf("saturate high gave %v", got)
	}
	if got := b.CorrectValue(-1e8, bounds); got != -5 {
		t.Fatalf("saturate low gave %v", got)
	}
}

func TestOffPolicy(t *testing.T) {
	b := &BoundingLogic{Policy: Off}
	if got := b.CorrectValue(1e30, Bounds{Lo: -1, Hi: 1}); got != 1e30 {
		t.Fatalf("off policy altered value to %v", got)
	}
}

func TestNaNCorrected(t *testing.T) {
	b := &BoundingLogic{Policy: Zero}
	nan := float32(math.NaN())
	if got := b.CorrectValue(nan, Bounds{Lo: -1, Hi: 1}); got != 0 {
		t.Fatalf("NaN corrected to %v", got)
	}
	bs := &BoundingLogic{Policy: Saturate}
	if got := bs.CorrectValue(nan, Bounds{Lo: -1, Hi: 1}); got != 0 {
		t.Fatalf("saturate NaN gave %v", got)
	}
}

func TestCorrectTensor(t *testing.T) {
	b := &BoundingLogic{Policy: Zero}
	x := tensor.FromSlice([]float32{1, 1e9, -2, float32(math.Inf(1))}, 4)
	n := b.CorrectTensor(x, Bounds{Lo: -5, Hi: 5})
	if n != 2 {
		t.Fatalf("corrected %d values, want 2", n)
	}
	if x.Data[0] != 1 || x.Data[1] != 0 || x.Data[2] != -2 || x.Data[3] != 0 {
		t.Fatalf("tensor after correction: %v", x.Data)
	}
}

func TestCorrectDequantizeFP32ExponentFlip(t *testing.T) {
	// The §3.2 scenario: an exponent-bit flip creates an enormous value
	// that the bounding logic must zero, both in the loaded value and in
	// the stored code.
	x := tensor.FromSlice([]float32{1.5, 2.0}, 2)
	q := quant.Quantize(x, quant.FP32)
	q.FlipBit(0, 30)
	if q.Value(0) < 1e30 {
		t.Fatal("test setup: exponent flip did not blow up")
	}
	b := &BoundingLogic{Policy: Zero}
	dst := make([]float32, 2)
	n := b.CorrectDequantize(q, Bounds{Lo: -10, Hi: 10}, dst)
	if n != 1 || b.Corrections != 1 {
		t.Fatalf("corrected %d values, counted %d", n, b.Corrections)
	}
	if dst[0] != 0 || dst[1] != 2.0 {
		t.Fatalf("loaded values after correction: %v", dst)
	}
	if q.Value(0) != 0 || q.Value(1) != 2.0 {
		t.Fatalf("stored values after correction: %v %v", q.Value(0), q.Value(1))
	}
}

func TestPartitionTableRoundTrip(t *testing.T) {
	pt := NewPartitionTable(8)
	pt.EncodeVDD(3, 1.05, 1.35)
	if got := pt.DecodeVDD(3, 1.35); math.Abs(got-1.05) > 0.005 {
		t.Fatalf("VDD round trip %v", got)
	}
	pt.EncodeTRCD(5, 7.0, 12.5)
	if got := pt.DecodeTRCD(5, 12.5); math.Abs(got-7.0) > 0.25 {
		t.Fatalf("tRCD round trip %v", got)
	}
}

func TestPartitionTableClamps(t *testing.T) {
	pt := NewPartitionTable(1)
	pt.EncodeVDD(0, 2.0, 1.35) // above nominal clamps to 0 steps
	if pt.VDDStep[0] != 0 {
		t.Fatalf("VDD step %d", pt.VDDStep[0])
	}
	pt.EncodeTRCD(0, -100, 12.5) // clamps to 15
	if pt.TRCDCode[0] != 15 {
		t.Fatalf("tRCD code %d", pt.TRCDCode[0])
	}
}

func TestMetadataBudgets(t *testing.T) {
	// §5: a 32-bank module needs tens of bytes; 2^10 partitions ~1.5KB;
	// an 8GB module at subarray granularity (2048) a few KB.
	if got := NewPartitionTable(32).MetadataBytes(); got > 64 {
		t.Fatalf("32 banks need %d B", got)
	}
	if got := NewPartitionTable(1024).MetadataBytes(); got > 2048 {
		t.Fatalf("1024 partitions need %d B", got)
	}
	if got := NewPartitionTable(2048).MetadataBytes(); got > 4096 {
		t.Fatalf("2048 subarrays need %d B", got)
	}
}

func TestPolicyString(t *testing.T) {
	if Zero.String() != "zero" || Saturate.String() != "saturate" || Off.String() != "off" {
		t.Fatal("policy names wrong")
	}
}
