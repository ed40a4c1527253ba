// Package memctrl models the memory controller support EDEN requires (§5):
// the bounding logic that corrects implausible values coming back from
// approximate DRAM, and the partition metadata tables that let the
// controller apply per-partition voltage and timing parameters.
package memctrl

import (
	"fmt"
	"math"

	"repro/internal/quant"
	"repro/internal/tensor"
)

// Policy selects how out-of-bounds values are corrected. The paper finds
// zeroing consistently beats saturating (§3.2); both are implemented so the
// ablation can be reproduced.
type Policy int

// Correction policies.
const (
	Zero Policy = iota
	Saturate
	// Off disables correction entirely (the paper's accuracy-collapse
	// baseline).
	Off
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case Zero:
		return "zero"
	case Saturate:
		return "saturate"
	case Off:
		return "off"
	default:
		return "unknown"
	}
}

// Bounds is a per-data-type plausible value range, computed while training
// the baseline DNN on reliable DRAM (§3.2).
type Bounds struct {
	Lo, Hi float32
}

// FromTensor derives bounds from a clean tensor with a safety margin:
// the observed range stretched by the multiplicative margin.
func FromTensor(t *tensor.Tensor, margin float32) Bounds {
	m := t.MaxAbs() * margin
	if m == 0 {
		m = margin
	}
	return Bounds{Lo: -m, Hi: m}
}

// BoundingLogic is the 1-cycle hardware block (§5) that compares every
// loaded value against its data type's bounds and corrects out-of-range
// values. CorrectedLatencyCycles is the per-load latency it adds.
type BoundingLogic struct {
	Policy Policy
	// Corrections counts how many values were corrected, for diagnostics.
	Corrections uint64
}

// CorrectedLatencyCycles is the latency the bounding logic adds to each
// load (§5 reports one cycle).
const CorrectedLatencyCycles = 1

// CorrectValue applies the policy to a single value.
func (b *BoundingLogic) CorrectValue(v float32, bounds Bounds) float32 {
	if b.Policy == Off {
		return v
	}
	if !(v < bounds.Lo || v > bounds.Hi || isNaN32(v)) {
		return v
	}
	b.Corrections++
	switch b.Policy {
	case Saturate:
		if isNaN32(v) {
			return 0
		}
		if v < bounds.Lo {
			return bounds.Lo
		}
		return bounds.Hi
	default: // Zero
		return 0
	}
}

func isNaN32(v float32) bool { return v != v }

// CorrectTensor applies the policy to every element in place and returns
// the number of corrections.
func (b *BoundingLogic) CorrectTensor(t *tensor.Tensor, bounds Bounds) int {
	if b.Policy == Off {
		return 0
	}
	n := 0
	for i, v := range t.Data {
		c := b.CorrectValue(v, bounds)
		if c != v || isNaN32(v) {
			t.Data[i] = c
			n++
		}
	}
	return n
}

// CorrectDequantize is the bounding logic on the load path, fused with
// dequantization: one pass decodes every value of q, checks it against
// bounds, re-encodes a corrected value into q's code (with q.SetValue, so a
// consumer of the code image sees the correction too), and writes the
// value as stored to dst. dst must hold exactly q.NumValues() values; it
// may alias the tensor q was quantized from. It returns the number of
// re-encoded values; with the Off policy it only dequantizes.
func (b *BoundingLogic) CorrectDequantize(q *quant.QTensor, bounds Bounds, dst []float32) int {
	if b.Policy == Off {
		q.DequantizeInto(dst)
		return 0
	}
	if len(dst) != len(q.Codes) {
		panic(fmt.Sprintf("memctrl: CorrectDequantize dst holds %d values, want %d", len(dst), len(q.Codes)))
	}
	n := 0
	lo, hi := bounds.Lo, bounds.Hi
	if q.Prec == quant.FP32 {
		for i, c := range q.Codes {
			v := math.Float32frombits(c)
			if v < lo || v > hi || isNaN32(v) {
				v = b.correctCode(q, i, v, bounds, &n)
			}
			dst[i] = v
		}
		return n
	}
	bits := q.Prec.Bits()
	if bits <= 8 {
		return b.correctDequantizeTable(q, bounds, dst, bits)
	}
	// Decode exactly as q.Value does: sign-extend the low bits, then scale.
	shift := uint(32 - bits)
	for i, c := range q.Codes {
		v := float32(int32(c<<shift)>>shift) * q.Scale
		if v < lo || v > hi || isNaN32(v) {
			v = b.correctCode(q, i, v, bounds, &n)
		}
		dst[i] = v
	}
	return n
}

// correctDequantizeTable is CorrectDequantize for codes of at most 8 bits:
// every possible code is decoded and bound-checked once, into a table, and
// the pass over the tensor becomes a lookup per value. When no code at all
// is out of bounds the pass skips the check.
func (b *BoundingLogic) correctDequantizeTable(q *quant.QTensor, bounds Bounds, dst []float32, bits int) int {
	var vals [256]float32
	var bad [256]bool
	anyBad := false
	shift := uint(32 - bits)
	last := 1<<bits - 1
	for c := 0; c <= last; c++ {
		v := float32(int32(uint32(c)<<shift)>>shift) * q.Scale
		vals[c] = v
		if v < bounds.Lo || v > bounds.Hi || isNaN32(v) {
			bad[c], anyBad = true, true
		}
	}
	mask := uint8(last)
	codes := q.Codes
	dst = dst[:len(codes)]
	if !anyBad {
		for i, c := range codes {
			dst[i] = vals[uint8(c)&mask]
		}
		return 0
	}
	n := 0
	for i, c := range codes {
		k := uint8(c) & mask
		if bad[k] {
			dst[i] = b.correctCode(q, i, vals[k], bounds, &n)
			continue
		}
		dst[i] = vals[k]
	}
	return n
}

// correctCode applies the policy to the out-of-bounds value v stored at
// index i of q. A value the policy changes (or a NaN) is re-encoded into
// q's code and counted in *n; the function returns the value q now holds.
func (b *BoundingLogic) correctCode(q *quant.QTensor, i int, v float32, bounds Bounds, n *int) float32 {
	c := b.CorrectValue(v, bounds)
	if c == v && !isNaN32(v) {
		return v
	}
	q.SetValue(i, c)
	*n++
	return q.Value(i)
}

// PartitionTable is the controller-side metadata that records which memory
// partition operates at which voltage and timing parameters (§5).
type PartitionTable struct {
	// VDD per partition, encoded as 8-bit steps.
	VDDStep []uint8
	// tRCD per partition, encoded in 4 bits.
	TRCDCode []uint8
}

// NewPartitionTable creates a table for n partitions.
func NewPartitionTable(n int) *PartitionTable {
	return &PartitionTable{VDDStep: make([]uint8, n), TRCDCode: make([]uint8, n)}
}

// MetadataBytes returns the table's storage cost in bytes: one 8-bit
// voltage step plus a 4-bit timing code per partition. The paper's §5
// budgets follow: 32 banks → 32+16 B ≈ 48 B of voltage/timing state, 2¹⁰
// partitions → ~1.5 KB, subarray granularity on an 8GB module (2048
// subarrays) → ~3 KB.
func (t *PartitionTable) MetadataBytes() int {
	return len(t.VDDStep) + (len(t.TRCDCode)+1)/2
}

// EncodeVDD stores a voltage as an 8-bit step below nominal (10 mV steps).
func (t *PartitionTable) EncodeVDD(p int, vdd, nominal float64) {
	steps := int(math.Round((nominal - vdd) / 0.01))
	if steps < 0 {
		steps = 0
	}
	if steps > 255 {
		steps = 255
	}
	t.VDDStep[p] = uint8(steps)
}

// DecodeVDD reconstructs the stored voltage.
func (t *PartitionTable) DecodeVDD(p int, nominal float64) float64 {
	return nominal - float64(t.VDDStep[p])*0.01
}

// EncodeTRCD stores tRCD as a 4-bit code in 0.5 ns steps below nominal
// (§5: "4 bits are enough to encode all possible values").
func (t *PartitionTable) EncodeTRCD(p int, trcd, nominal float64) {
	steps := int(math.Round((nominal - trcd) / 0.5))
	if steps < 0 {
		steps = 0
	}
	if steps > 15 {
		steps = 15
	}
	t.TRCDCode[p] = uint8(steps)
}

// DecodeTRCD reconstructs the stored tRCD.
func (t *PartitionTable) DecodeTRCD(p int, nominal float64) float64 {
	return nominal - float64(t.TRCDCode[p])*0.5
}
