package albireo

import "photoloop/internal/workload"

// Fused returns the configuration layer i of net runs on when the
// network's layers are fused: activations stay on chip, so the DRAM backs
// weights always, inputs only for the first layer and outputs only for
// the last, and the global buffer grows to hold the inter-layer
// activations of net at its batch size (fusedGLBMiB).
func (c Config) Fused(net *workload.Network, i int) Config {
	keeps := workload.NewTensorSet(workload.Weights)
	if i == 0 {
		keeps = keeps.With(workload.Inputs)
	}
	if i == len(net.Layers)-1 {
		keeps = keeps.With(workload.Outputs)
	}
	c.DRAMKeeps = keeps
	c.GLBMiB = fusedGLBMiB(c.GLBMiB, net)
	return c
}

// fusedGLBMiB sizes the fused global buffer: at least double the baseline
// (the paper's trade-off) and large enough for the biggest inter-layer
// activation working set plus headroom for weights and the second
// activation tensor.
func fusedGLBMiB(baseMiB int, net *workload.Network) int {
	need := int64(0)
	for i := range net.Layers {
		l := &net.Layers[i]
		words := l.TensorElems(workload.Inputs) + l.TensorElems(workload.Outputs) + l.TensorElems(workload.Weights)
		if words > need {
			need = words
		}
	}
	needMiB := int((need + (1 << 20) - 1) >> 20) // 8-bit words -> MiB
	mib := 2 * baseMiB
	// Round the activation demand up with 50% headroom for tiling slack.
	for mib < needMiB+needMiB/2+1 {
		mib *= 2
	}
	return mib
}
