// Package workload describes deep-neural-network workloads as collections
// of seven-dimensional convolution problems, following the Timeloop /
// CiMLoop problem abstraction that the paper builds on.
//
// A convolutional layer is described by the dimensions
//
//	N — batch size
//	K — output channels
//	C — input channels
//	P — output feature-map rows
//	Q — output feature-map columns
//	R — filter rows
//	S — filter columns
//
// together with strides, dilations and padding. A fully-connected layer is
// the degenerate case P=Q=R=S=1. The three operand tensors are projections
// of the iteration space:
//
//	Weights[K][C][R][S]
//	Inputs[N][C][H][W]   with H,W derived from P,R (resp. Q,S) via stride
//	Outputs[N][K][P][Q]
package workload

import "fmt"

// Dim identifies one of the seven problem dimensions.
type Dim uint8

// The seven problem dimensions, in canonical order.
const (
	DimN Dim = iota
	DimK
	DimC
	DimP
	DimQ
	DimR
	DimS
	// NumDims is the number of problem dimensions.
	NumDims
)

var dimNames = [NumDims]string{"N", "K", "C", "P", "Q", "R", "S"}

// String returns the canonical single-letter name of the dimension.
func (d Dim) String() string {
	if d < NumDims {
		return dimNames[d]
	}
	return fmt.Sprintf("Dim(%d)", uint8(d))
}

// AllDims lists every dimension in canonical order. The slice is freshly
// allocated — callers may modify it.
func AllDims() []Dim {
	return []Dim{DimN, DimK, DimC, DimP, DimQ, DimR, DimS}
}

// ParseDim converts a single-letter dimension name ("N", "K", ...) to a Dim.
func ParseDim(s string) (Dim, error) {
	for i, n := range dimNames {
		if n == s {
			return Dim(i), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown dimension %q", s)
}

// Tensor identifies one of the three operand tensors.
type Tensor uint8

// The three operand tensors.
const (
	Weights Tensor = iota
	Inputs
	Outputs
	// NumTensors is the number of operand tensors.
	NumTensors
)

var tensorNames = [NumTensors]string{"Weights", "Inputs", "Outputs"}

// String returns the tensor's name.
func (t Tensor) String() string {
	if t < NumTensors {
		return tensorNames[t]
	}
	return fmt.Sprintf("Tensor(%d)", uint8(t))
}

// AllTensors lists every tensor. The slice is freshly allocated — callers
// may modify it.
func AllTensors() []Tensor {
	return []Tensor{Weights, Inputs, Outputs}
}

// ParseTensor converts a tensor name to a Tensor.
func ParseTensor(s string) (Tensor, error) {
	for i, n := range tensorNames {
		if n == s {
			return Tensor(i), nil
		}
	}
	return 0, fmt.Errorf("workload: unknown tensor %q", s)
}

// IsRead reports whether the tensor is a read-only operand (weights or
// inputs) as opposed to the read-modify-write output tensor.
func (t Tensor) IsRead() bool { return t == Weights || t == Inputs }

// relevance[t][d] reports whether iterating dimension d changes which
// element of tensor t is addressed. For inputs, P and Q couple with R and S
// through the sliding window, so all of P, Q, R, S are relevant.
var relevance = [NumTensors][NumDims]bool{
	Weights: {DimK: true, DimC: true, DimR: true, DimS: true},
	Inputs:  {DimN: true, DimC: true, DimP: true, DimQ: true, DimR: true, DimS: true},
	Outputs: {DimN: true, DimK: true, DimP: true, DimQ: true},
}

// Relevant reports whether dimension d addresses tensor t.
func Relevant(t Tensor, d Dim) bool { return relevance[t][d] }

// ReductionDims returns the dimensions that are reduced away when forming
// the output (C, R, S): iterating them accumulates into the same output
// element.
func ReductionDims() []Dim { return []Dim{DimC, DimR, DimS} }

// Point is a vector indexed by Dim, used for bounds, tile extents and loop
// trip counts.
type Point [NumDims]int

// Ones returns a Point with every coordinate set to 1.
func Ones() Point {
	var p Point
	for i := range p {
		p[i] = 1
	}
	return p
}

// Product returns the product of all coordinates.
func (p Point) Product() int64 {
	prod := int64(1)
	for _, v := range p {
		prod *= int64(v)
	}
	return prod
}

// Mul returns the coordinate-wise product of p and q.
func (p Point) Mul(q Point) Point {
	var out Point
	for i := range p {
		out[i] = p[i] * q[i]
	}
	return out
}

// String formats the point as "N1 K64 C64 P56 Q56 R3 S3".
func (p Point) String() string {
	s := ""
	for d := Dim(0); d < NumDims; d++ {
		if d > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s%d", d, p[d])
	}
	return s
}

// CeilDiv returns ceil(a/b) for positive b.
func CeilDiv(a, b int) int {
	if b <= 0 {
		panic("workload: CeilDiv by non-positive divisor")
	}
	return (a + b - 1) / b
}
