package workload

import (
	"errors"
	"fmt"
)

// LayerType classifies a layer for reporting and mapping heuristics. All
// types share the same 7-dimensional iteration space.
type LayerType uint8

// Supported layer types. Depthwise/grouped convolutions are not directly
// representable in the dense 7-dimensional projection (each output channel
// would read a disjoint input-channel slice); fold the channel-parallel
// groups into the batch dimension with NewDepthwise (exact MACs and
// activation footprints) or decompose them into per-group Conv layers
// (exact everything, at one layer per group).
const (
	Conv LayerType = iota // spatial convolution
	FC                    // fully connected / matmul (P=Q=R=S=1)
)

var layerTypeNames = map[LayerType]string{Conv: "Conv", FC: "FC"}

// String returns the layer type's name.
func (t LayerType) String() string {
	if n, ok := layerTypeNames[t]; ok {
		return n
	}
	return fmt.Sprintf("LayerType(%d)", uint8(t))
}

// Layer is one DNN layer expressed as a 7-dimensional nested-loop problem.
// The zero value is not valid; use NewConv/NewFC or fill every field and
// call Validate.
type Layer struct {
	Name string    `json:"name"`
	Type LayerType `json:"type"`

	// Problem bounds.
	N int `json:"n"` // batch
	K int `json:"k"` // output channels
	C int `json:"c"` // input channels
	P int `json:"p"` // output rows
	Q int `json:"q"` // output cols
	R int `json:"r"` // filter rows
	S int `json:"s"` // filter cols

	// Geometry.
	StrideH   int `json:"stride_h"`
	StrideW   int `json:"stride_w"`
	DilationH int `json:"dilation_h"`
	DilationW int `json:"dilation_w"`
	PadH      int `json:"pad_h"` // top+bottom combined is 2*PadH
	PadW      int `json:"pad_w"`

	// Operand precisions in bits. Zero means the evaluator's default.
	WeightBits int `json:"weight_bits,omitempty"`
	InputBits  int `json:"input_bits,omitempty"`
	OutputBits int `json:"output_bits,omitempty"`

	// NPerBatch is how many units of N one batch item contributes; 0
	// means 1 (the plain CNN convention where N is the image count).
	// Layers that fold another data-parallel axis into N — sequence
	// positions in transformer matmuls (N = batch x sequence), channel
	// groups in depthwise convolutions (N = batch x channels) — set it so
	// WithBatch rescales N correctly instead of overwriting the folded
	// axis. It annotates batching only and does not affect evaluation
	// (and therefore is not part of ShapeFingerprint).
	NPerBatch int `json:"n_per_batch,omitempty"`
}

// NewConv builds a square-filter convolution layer. pad is per-side padding.
func NewConv(name string, n, k, c, p, q, r, s, stride, pad int) Layer {
	return Layer{
		Name: name, Type: Conv,
		N: n, K: k, C: c, P: p, Q: q, R: r, S: s,
		StrideH: stride, StrideW: stride,
		DilationH: 1, DilationW: 1,
		PadH: pad, PadW: pad,
	}
}

// NewFC builds a fully-connected layer treated as a 1x1 convolution over a
// 1x1 feature map: Outputs[N][K] = Weights[K][C] x Inputs[N][C].
func NewFC(name string, n, k, c int) Layer {
	l := NewConv(name, n, k, c, 1, 1, 1, 1, 1, 0)
	l.Type = FC
	return l
}

// NewMatmul builds a general matrix multiplication
// Out[rows][cols] = A[rows][inner] x B[inner][cols] as an FC layer with
// N=rows, K=cols, C=inner. The B operand occupies the Weights slot whether
// it holds trained parameters (a projection) or activations (the QK^T and
// attention-x-V matmuls of a transformer block); the analytical model
// charges its movement identically either way. Batched matmuls fold the
// batch axis into rows (see Layer.NPerBatch).
func NewMatmul(name string, rows, cols, inner int) Layer {
	return NewFC(name, rows, cols, inner)
}

// NewDepthwise builds a depthwise convolution over ch channels in the
// dense 7-dimensional projection by folding the channel-parallel groups
// into the batch dimension: N = n*ch, K = C = 1, NPerBatch = ch. MAC
// count, input footprint and output footprint are exact under this
// folding; the ch per-channel filters collapse into one shared RxS filter,
// so the weight footprint is understated by a factor of ch and weight
// reuse across channels is optimistic — a small error at mobile scales,
// where depthwise filters are under 2% of the parameters. Callers needing
// exact weight traffic should decompose into per-group Conv layers
// instead.
func NewDepthwise(name string, n, ch, p, q, r, s, stride, pad int) Layer {
	l := NewConv(name, n*ch, 1, 1, p, q, r, s, stride, pad)
	l.NPerBatch = ch
	return l
}

// Validate checks that the layer describes a consistent problem.
func (l *Layer) Validate() error {
	if l.Name == "" {
		return errors.New("workload: layer has no name")
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"N", l.N}, {"K", l.K}, {"C", l.C}, {"P", l.P},
		{"Q", l.Q}, {"R", l.R}, {"S", l.S},
		{"StrideH", l.StrideH}, {"StrideW", l.StrideW},
		{"DilationH", l.DilationH}, {"DilationW", l.DilationW},
	} {
		if f.v < 1 {
			return fmt.Errorf("workload: layer %s: %s = %d, want >= 1", l.Name, f.name, f.v)
		}
	}
	if l.PadH < 0 || l.PadW < 0 {
		return fmt.Errorf("workload: layer %s: negative padding", l.Name)
	}
	if l.NPerBatch < 0 {
		return fmt.Errorf("workload: layer %s: NPerBatch = %d, want >= 0", l.Name, l.NPerBatch)
	}
	if l.Type == FC && (l.P != 1 || l.Q != 1 || l.R != 1 || l.S != 1) {
		return fmt.Errorf("workload: layer %s: FC layers require P=Q=R=S=1", l.Name)
	}
	return nil
}

// Bounds returns the problem bounds as a Point.
func (l *Layer) Bounds() Point {
	var p Point
	p[DimN] = l.N
	p[DimK] = l.K
	p[DimC] = l.C
	p[DimP] = l.P
	p[DimQ] = l.Q
	p[DimR] = l.R
	p[DimS] = l.S
	return p
}

// Bound returns the bound of a single dimension.
func (l *Layer) Bound(d Dim) int { return l.Bounds()[d] }

// MACs returns the number of multiply-accumulate operations in the layer.
func (l *Layer) MACs() int64 { return l.Bounds().Product() }

// InputH returns the height of the input feature-map region touched by the
// layer (excluding padding contributions beyond the touched window):
// (P-1)*strideH + (R-1)*dilationH + 1.
func (l *Layer) InputH() int {
	return (l.P-1)*l.StrideH + (l.R-1)*l.DilationH + 1
}

// InputW returns the width of the touched input feature-map region.
func (l *Layer) InputW() int {
	return (l.Q-1)*l.StrideW + (l.S-1)*l.DilationW + 1
}

// InputRange returns the extent of the input feature map touched by tile
// extents pExt (over P or Q) and rExt (over R or S) in one spatial axis:
// (pExt-1)*stride + (rExt-1)*dilation + 1. It is the halo formula used for
// input tile sizing.
func InputRange(pExt, rExt, stride, dilation int) int {
	if pExt < 1 || rExt < 1 {
		return 0
	}
	return (pExt-1)*stride + (rExt-1)*dilation + 1
}

// TensorElems returns the number of elements in tensor t.
func (l *Layer) TensorElems(t Tensor) int64 {
	switch t {
	case Weights:
		return int64(l.K) * int64(l.C) * int64(l.R) * int64(l.S)
	case Inputs:
		return int64(l.N) * int64(l.C) * int64(l.InputH()) * int64(l.InputW())
	case Outputs:
		return int64(l.N) * int64(l.K) * int64(l.P) * int64(l.Q)
	}
	panic("workload: unknown tensor")
}

// TileElems returns the number of elements of tensor t covered by a tile
// whose per-dimension extents are ext. Input tiles use the sliding-window
// halo formula.
func (l *Layer) TileElems(t Tensor, ext Point) int64 {
	switch t {
	case Weights:
		return int64(ext[DimK]) * int64(ext[DimC]) * int64(ext[DimR]) * int64(ext[DimS])
	case Inputs:
		h := InputRange(ext[DimP], ext[DimR], l.StrideH, l.DilationH)
		w := InputRange(ext[DimQ], ext[DimS], l.StrideW, l.DilationW)
		return int64(ext[DimN]) * int64(ext[DimC]) * int64(h) * int64(w)
	case Outputs:
		return int64(ext[DimN]) * int64(ext[DimK]) * int64(ext[DimP]) * int64(ext[DimQ])
	}
	panic("workload: unknown tensor")
}

// WithBatch returns a copy of the layer at batch size n: N becomes
// n x NPerBatch, so layers that fold sequence positions or channel groups
// into N (transformer matmuls, depthwise convolutions) rescale instead of
// losing the folded axis.
func (l Layer) WithBatch(n int) Layer {
	l.N = n * max(1, l.NPerBatch)
	return l
}

// String formats the layer compactly.
func (l *Layer) String() string {
	return fmt.Sprintf("%s[%s %s stride %dx%d pad %dx%d]",
		l.Name, l.Type, l.Bounds(), l.StrideH, l.StrideW, l.PadH, l.PadW)
}

// ShapeFingerprint returns a 64-bit FNV-1a hash of everything that affects
// the layer's evaluation — bounds, geometry, and operand precisions — but
// not its name. Two layers with equal shape fingerprints are
// interchangeable to the analytical model and the mapper, which is what
// lets the sweep's result cache reuse one search across a network's
// repeated layer shapes (e.g. ResNet's identical basic blocks).
func (l *Layer) ShapeFingerprint() uint64 {
	h := NewFnv64a()
	h.Mix(uint64(l.Type))
	for _, v := range []int{l.N, l.K, l.C, l.P, l.Q, l.R, l.S,
		l.StrideH, l.StrideW, l.DilationH, l.DilationW, l.PadH, l.PadW,
		l.WeightBits, l.InputBits, l.OutputBits} {
		h.Mix(uint64(v))
	}
	return h.Sum()
}
