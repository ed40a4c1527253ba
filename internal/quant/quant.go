// Package quant implements the symmetric linear quantization scheme used by
// the paper (§2.1, Table 2) and the bit-level value codecs that approximate
// DRAM error injection operates on. A quantized tensor stores each value as
// a two's-complement code of 4, 8 or 16 bits; FP32 tensors store raw IEEE-754
// bit patterns. Bit flips are applied directly to these stored
// representations, exactly as a flipped DRAM cell would corrupt them.
package quant

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Precision is a numeric storage format for DNN data.
type Precision int

// The four precisions evaluated in the paper.
const (
	FP32 Precision = iota
	Int16
	Int8
	Int4
)

// Bits returns the number of stored bits per value.
func (p Precision) Bits() int {
	switch p {
	case FP32:
		return 32
	case Int16:
		return 16
	case Int8:
		return 8
	case Int4:
		return 4
	default:
		panic(fmt.Sprintf("quant: unknown precision %d", int(p)))
	}
}

// String returns the paper's name for the precision.
func (p Precision) String() string {
	switch p {
	case FP32:
		return "FP32"
	case Int16:
		return "int16"
	case Int8:
		return "int8"
	case Int4:
		return "int4"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Precisions lists all supported precisions from widest to narrowest.
var Precisions = []Precision{FP32, Int16, Int8, Int4}

// QTensor is a tensor quantized to a given precision. Codes holds one entry
// per value; only the low Bits() bits are meaningful and they hold the
// two's-complement quantized code (or the raw float bits for FP32).
type QTensor struct {
	Prec  Precision
	Shape tensor.Shape
	Scale float32 // dequantization step; unused (1.0) for FP32
	Codes []uint32
}

// maxCode returns the largest positive code for b-bit symmetric quantization,
// i.e. 2^(b-1)-1.
func maxCode(b int) int32 {
	return int32(1)<<(b-1) - 1
}

// Quantize converts t to precision p using per-tensor symmetric linear
// scaling: values are mapped into [-2^(b-1), 2^(b-1)-1] by scale = max|x| /
// (2^(b-1)-1). FP32 is a bit-exact passthrough.
func Quantize(t *tensor.Tensor, p Precision) *QTensor {
	q := &QTensor{}
	QuantizeInto(q, t, p)
	return q
}

// QuantizeInto is Quantize into q's existing storage: q's code and shape
// buffers are reused whenever their capacity allows, so a caller that
// quantizes tensor after tensor through one QTensor allocates only when a
// tensor outgrows every earlier one. Every live code is rewritten, so
// nothing from an earlier, larger tensor survives in q.Codes.
//
// Rounding is half away from zero, as math.Round, but computed as
// trunc(x ± 0.5) in float64: x is a float32 quotient, so adding 0.5 is
// exact wherever the result fits an int32 code, and the truncating
// conversion inlines to a few branch-free instructions instead of a
// math.Round call per value.
func QuantizeInto(q *QTensor, t *tensor.Tensor, p Precision) {
	n := t.Size()
	if cap(q.Codes) < n {
		q.Codes = make([]uint32, n)
	}
	q.Prec, q.Shape, q.Scale, q.Codes = p, append(q.Shape[:0], t.Shape()...), 1, q.Codes[:n]
	codes := q.Codes
	if p == FP32 {
		for i, v := range t.Data[:n] {
			codes[i] = math.Float32bits(v)
		}
		return
	}
	b := p.Bits()
	mc := maxCode(b)
	if ma := t.MaxAbs(); ma != 0 {
		q.Scale = ma / float32(mc)
	}
	scale := q.Scale
	mask := uint32(1)<<b - 1
	for i, v := range t.Data[:n] {
		x := float64(v / scale)
		c := int32(x + math.Copysign(0.5, x))
		if c > mc {
			c = mc
		}
		if c < -mc-1 {
			c = -mc - 1
		}
		codes[i] = uint32(c) & mask
	}
}

// Dequantize reconstructs a float32 tensor from the stored codes.
func (q *QTensor) Dequantize() *tensor.Tensor {
	out := tensor.New(q.Shape...)
	if q.Prec == FP32 {
		for i, c := range q.Codes {
			out.Data[i] = math.Float32frombits(c)
		}
		return out
	}
	b := q.Prec.Bits()
	for i, c := range q.Codes {
		out.Data[i] = float32(signExtend(c, b)) * q.Scale
	}
	return out
}

// DequantizeInto decodes into dst, which must hold exactly Size() values.
// It is Dequantize without the allocation, for callers that already own the
// destination storage (e.g. corrupting a sample's slab of a fused batch
// tensor in place).
func (q *QTensor) DequantizeInto(dst []float32) {
	if len(dst) != len(q.Codes) {
		panic(fmt.Sprintf("quant: DequantizeInto dst holds %d values, want %d", len(dst), len(q.Codes)))
	}
	if q.Prec == FP32 {
		for i, c := range q.Codes {
			dst[i] = math.Float32frombits(c)
		}
		return
	}
	b := q.Prec.Bits()
	for i, c := range q.Codes {
		dst[i] = float32(signExtend(c, b)) * q.Scale
	}
}

// signExtend interprets the low b bits of c as a two's-complement integer.
func signExtend(c uint32, b int) int32 {
	shift := 32 - b
	return int32(c<<shift) >> shift
}

// Int8ValuesInto writes the sign-extended integer codes into dst, which must
// hold exactly NumValues() entries. This is the packed-row accessor integer
// kernels consume: the codes go straight into int8 arithmetic with no float
// round-trip, and together with Scale they fully describe the stored tensor.
// Only precisions of at most 8 bits have codes that fit an int8; wider
// precisions panic.
func (q *QTensor) Int8ValuesInto(dst []int8) {
	if q.Prec.Bits() > 8 {
		panic(fmt.Sprintf("quant: Int8ValuesInto on %v tensor (codes exceed 8 bits)", q.Prec))
	}
	if len(dst) != len(q.Codes) {
		panic(fmt.Sprintf("quant: Int8ValuesInto dst holds %d values, want %d", len(dst), len(q.Codes)))
	}
	b := q.Prec.Bits()
	for i, c := range q.Codes {
		dst[i] = int8(signExtend(c, b))
	}
}

// Int8Values allocates and returns the sign-extended integer codes; see
// Int8ValuesInto.
func (q *QTensor) Int8Values() []int8 {
	dst := make([]int8, len(q.Codes))
	q.Int8ValuesInto(dst)
	return dst
}

// Value decodes the single value at index i.
func (q *QTensor) Value(i int) float32 {
	if q.Prec == FP32 {
		return math.Float32frombits(q.Codes[i])
	}
	return float32(signExtend(q.Codes[i], q.Prec.Bits())) * q.Scale
}

// SetValue re-encodes v into the code at index i using the existing scale.
func (q *QTensor) SetValue(i int, v float32) {
	if q.Prec == FP32 {
		q.Codes[i] = math.Float32bits(v)
		return
	}
	b := q.Prec.Bits()
	mc := maxCode(b)
	c := int32(math.Round(float64(v / q.Scale)))
	if c > mc {
		c = mc
	}
	if c < -mc-1 {
		c = -mc - 1
	}
	q.Codes[i] = uint32(c) & (uint32(1)<<b - 1)
}

// FlipBit flips bit `bit` (0 = LSB) of the stored representation of value i.
// This is the primitive approximate-DRAM error injection uses.
func (q *QTensor) FlipBit(i, bit int) {
	q.Codes[i] ^= 1 << uint(bit)
}

// Bit reports bit `bit` of value i's stored representation.
func (q *QTensor) Bit(i, bit int) bool {
	return q.Codes[i]>>uint(bit)&1 == 1
}

// NumValues returns the number of stored values.
func (q *QTensor) NumValues() int { return len(q.Codes) }

// NumBits returns the total number of stored bits.
func (q *QTensor) NumBits() int { return len(q.Codes) * q.Prec.Bits() }

// Bytes returns the storage footprint in bytes (bit count rounded up).
func (q *QTensor) Bytes() int { return (q.NumBits() + 7) / 8 }

// Clone returns an independent deep copy.
func (q *QTensor) Clone() *QTensor {
	c := &QTensor{Prec: q.Prec, Shape: q.Shape.Clone(), Scale: q.Scale, Codes: make([]uint32, len(q.Codes))}
	copy(c.Codes, q.Codes)
	return c
}

// Pack serializes the codes into a densely packed little-endian bit stream,
// the byte image that is stored in (approximate) DRAM.
func (q *QTensor) Pack() []byte {
	b := q.Prec.Bits()
	out := make([]byte, q.Bytes())
	bitPos := 0
	for _, c := range q.Codes {
		for k := 0; k < b; k++ {
			if c>>uint(k)&1 == 1 {
				out[bitPos>>3] |= 1 << uint(bitPos&7)
			}
			bitPos++
		}
	}
	return out
}

// Unpack deserializes a byte image produced by Pack back into the codes.
// It panics if the buffer is shorter than the tensor's footprint.
func (q *QTensor) Unpack(buf []byte) {
	b := q.Prec.Bits()
	if len(buf) < q.Bytes() {
		panic(fmt.Sprintf("quant: Unpack buffer %d bytes, need %d", len(buf), q.Bytes()))
	}
	mask := uint32(1)<<b - 1
	if b == 32 {
		mask = ^uint32(0)
	}
	bitPos := 0
	for i := range q.Codes {
		var c uint32
		for k := 0; k < b; k++ {
			if buf[bitPos>>3]>>uint(bitPos&7)&1 == 1 {
				c |= 1 << uint(k)
			}
			bitPos++
		}
		q.Codes[i] = c & mask
	}
}

// QuantizationError returns the mean absolute error introduced by
// quantizing t to precision p and dequantizing again.
func QuantizationError(t *tensor.Tensor, p Precision) float64 {
	q := Quantize(t, p)
	d := q.Dequantize()
	var sum float64
	for i := range t.Data {
		sum += math.Abs(float64(t.Data[i] - d.Data[i]))
	}
	if t.Size() == 0 {
		return 0
	}
	return sum / float64(t.Size())
}
