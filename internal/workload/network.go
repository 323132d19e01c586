package workload

import (
	"encoding/json"
	"fmt"
	"io"
)

// Network is an ordered list of layers evaluated back to back. Layer order
// matters for layer-fusion studies: layer i+1 consumes layer i's outputs.
type Network struct {
	Name   string  `json:"name"`
	Layers []Layer `json:"layers"`
}

// Validate validates every layer.
func (n *Network) Validate() error {
	if n.Name == "" {
		return fmt.Errorf("workload: network has no name")
	}
	if len(n.Layers) == 0 {
		return fmt.Errorf("workload: network %s has no layers", n.Name)
	}
	seen := make(map[string]bool, len(n.Layers))
	for i := range n.Layers {
		l := &n.Layers[i]
		if err := l.Validate(); err != nil {
			return fmt.Errorf("workload: network %s layer %d: %w", n.Name, i, err)
		}
		if seen[l.Name] {
			return fmt.Errorf("workload: network %s: duplicate layer name %q", n.Name, l.Name)
		}
		seen[l.Name] = true
	}
	return nil
}

// MACs returns the total multiply-accumulate count across all layers.
func (n *Network) MACs() int64 {
	var total int64
	for i := range n.Layers {
		total += n.Layers[i].MACs()
	}
	return total
}

// WeightElems returns the total number of weight elements (the model size).
func (n *Network) WeightElems() int64 {
	var total int64
	for i := range n.Layers {
		total += n.Layers[i].TensorElems(Weights)
	}
	return total
}

// WithBatch returns a copy of the network with every layer's batch set to b.
func (n Network) WithBatch(b int) Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = l.WithBatch(b)
	}
	n.Layers = layers
	return n
}

// DecodeNetworkJSON reads a network from JSON and validates it.
func DecodeNetworkJSON(r io.Reader) (*Network, error) {
	var n Network
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&n); err != nil {
		return nil, fmt.Errorf("workload: decoding network: %w", err)
	}
	// Fill defaults for fields older specs may omit.
	for i := range n.Layers {
		l := &n.Layers[i]
		if l.DilationH == 0 {
			l.DilationH = 1
		}
		if l.DilationW == 0 {
			l.DilationW = 1
		}
		if l.StrideH == 0 {
			l.StrideH = 1
		}
		if l.StrideW == 0 {
			l.StrideW = 1
		}
	}
	if err := n.Validate(); err != nil {
		return nil, err
	}
	return &n, nil
}
