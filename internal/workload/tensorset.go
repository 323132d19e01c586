package workload

import "strings"

// TensorSet is a small bitmask set of operand tensors, used by architecture
// levels to declare which tensors they keep (vs. bypass).
type TensorSet uint8

// NewTensorSet builds a set from its members.
func NewTensorSet(ts ...Tensor) TensorSet {
	var s TensorSet
	for _, t := range ts {
		s = s.With(t)
	}
	return s
}

// AllTensorSet is the set of all three operand tensors.
func AllTensorSet() TensorSet { return NewTensorSet(Weights, Inputs, Outputs) }

// With returns the set with t added.
func (s TensorSet) With(t Tensor) TensorSet { return s | 1<<t }

// Has reports whether t is in the set.
func (s TensorSet) Has(t Tensor) bool { return s&(1<<t) != 0 }

// Empty reports whether the set is empty.
func (s TensorSet) Empty() bool { return s == 0 }

// Tensors lists the members in canonical order.
func (s TensorSet) Tensors() []Tensor {
	var out []Tensor
	for _, t := range AllTensors() {
		if s.Has(t) {
			out = append(out, t)
		}
	}
	return out
}

// String formats the set as "{Weights,Outputs}".
func (s TensorSet) String() string {
	var names []string
	for _, t := range s.Tensors() {
		names = append(names, t.String())
	}
	return "{" + strings.Join(names, ",") + "}"
}
