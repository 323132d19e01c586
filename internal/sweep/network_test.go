package sweep

import (
	"fmt"
	"reflect"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// directNetwork is the per-layer reference the sweep's network loop must
// reproduce: every layer of net (already at its batch size) is searched
// from scratch on its own built Albireo arch — cfg.Fused's for a fused
// workload — seeded with the canonical mappings, with no result cache and
// no shape dedupe. The layers' results are summed in order into one
// result holding their concatenated energy ledger.
func directNetwork(t *testing.T, cfg albireo.Config, net workload.Network, fused bool, opts mapper.Options) model.Result {
	t.Helper()
	total := model.Result{Layer: net.Name}
	for i := range net.Layers {
		layer := &net.Layers[i]
		lcfg := cfg
		if fused {
			lcfg = cfg.Fused(&net, i)
		}
		a, err := lcfg.Build()
		if err != nil {
			t.Fatal(err)
		}
		o := opts
		o.Seeds = mapper.SeedList(albireo.CanonicalMappings(a, layer))
		best, err := mapper.Search(a, layer, o)
		if err != nil {
			t.Fatalf("layer %s: %v", layer.Name, err)
		}
		r := best.Result
		total.MACs += r.MACs
		total.PaddedMACs += r.PaddedMACs
		total.Cycles += r.Cycles
		total.TotalPJ += r.TotalPJ
		total.Energy = append(total.Energy, r.Energy...)
	}
	total.Utilization = float64(total.MACs) / float64(total.PaddedMACs)
	return total
}

// TestRunMatchesDirectFusedNetwork pins the network loop on Fig. 4's four
// workloads — ResNet-18 at batch 1 and 8, fused or not, on the aggressive
// Albireo — against directNetwork: batching, the per-position fused
// architectures and ResNet's repeated block shapes must all leave every
// point's totals bit-identical to the uncached, undeduped reference.
func TestRunMatchesDirectFusedNetwork(t *testing.T) {
	var workloads []Workload
	for _, fused := range []bool{false, true} {
		for _, batch := range []int{1, 8} {
			workloads = append(workloads, Workload{Network: "resnet18", Batch: batch, Fused: fused})
		}
	}
	sp := Spec{
		Base:          Base{Albireo: &AlbireoBase{Scaling: "aggressive"}},
		Workloads:     workloads,
		Objectives:    []string{"energy"},
		Budget:        60,
		Seed:          1,
		SearchWorkers: 1,
	}
	res, err := Run(sp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(workloads) {
		t.Fatalf("got %d points, want %d", len(res.Points), len(workloads))
	}
	opts := mapper.Options{Objective: mapper.MinEnergy, Budget: 60, Seed: 1, Workers: 1}
	for i, w := range workloads {
		direct := directNetwork(t, albireo.Default(albireo.Aggressive), workload.ResNet18(w.Batch), w.Fused, opts)
		p := &res.Points[i]
		if p.Batch != w.Batch || p.Fused != w.Fused {
			t.Fatalf("point %d is (batch %d, fused %v), want (%d, %v)", i, p.Batch, p.Fused, w.Batch, w.Fused)
		}
		if p.TotalPJ != direct.TotalPJ || p.Cycles != direct.Cycles || p.MACs != direct.MACs {
			t.Errorf("point %d (batch %d, fused %v): sweep %.12g pJ %.12g cyc %d MACs, direct %.12g pJ %.12g cyc %d MACs",
				i, w.Batch, w.Fused, p.TotalPJ, p.Cycles, p.MACs, direct.TotalPJ, direct.Cycles, direct.MACs)
		}
		if got, want := albireo.RoleBreakdown(p.Results...), albireo.RoleBreakdown(&direct); !reflect.DeepEqual(got, want) {
			t.Errorf("point %d: per-layer role breakdown %v, concatenated ledger %v", i, got, want)
		}
	}
}

// miniNet is n identical 64-channel 28x28 3x3 convolutions.
func miniNet(n int) *workload.Network {
	net := &workload.Network{Name: "mini"}
	for i := 1; i <= n; i++ {
		net.Layers = append(net.Layers, workload.NewConv(fmt.Sprintf("c%d", i), 1, 64, 64, 28, 28, 3, 3, 1, 1))
	}
	return net
}

// runPoints runs an Albireo sweep of workloads at the given scaling and
// mapper budget (seed 1) and returns its points.
func runPoints(t *testing.T, scaling string, budget int, workloads ...Workload) []Point {
	t.Helper()
	res, err := Run(Spec{
		Base:      Base{Albireo: &AlbireoBase{Scaling: scaling}},
		Workloads: workloads,
		Budget:    budget,
		Seed:      1,
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res.Points
}

// dramShare returns the DRAM fraction of a point's total energy.
func dramShare(p *Point) float64 {
	return albireo.RoleBreakdown(p.Results...)[albireo.RoleDRAM] / p.TotalPJ
}

// TestRunBatchAmortizesWeights: batching multiplies the work and amortizes
// weight movement, so DRAM energy per MAC drops (the first Fig. 4
// optimization).
func TestRunBatchAmortizesWeights(t *testing.T) {
	net := miniNet(2)
	pts := runPoints(t, "aggressive", 400, Workload{Inline: net, Batch: 1}, Workload{Inline: net, Batch: 8})
	b1, b8 := &pts[0], &pts[1]
	if b8.MACs != 8*b1.MACs {
		t.Fatalf("batch-8 MACs = %d, want %d", b8.MACs, 8*b1.MACs)
	}
	w1 := albireo.RoleBreakdown(b1.Results...)[albireo.RoleDRAM] / float64(b1.MACs)
	w8 := albireo.RoleBreakdown(b8.Results...)[albireo.RoleDRAM] / float64(b8.MACs)
	if w8 >= w1 {
		t.Errorf("batching did not reduce DRAM energy per MAC: %g vs %g", w8, w1)
	}
}

// TestRunFusionRemovesActivationDRAM: fusion keeps activations on chip,
// cutting the DRAM share, and pays for it with a larger, more expensive
// global buffer (the second Fig. 4 optimization). Which tensors each
// fused layer's DRAM backs is albireo's TestFusedConfig.
func TestRunFusionRemovesActivationDRAM(t *testing.T) {
	net := miniNet(3)
	pts := runPoints(t, "aggressive", 400, Workload{Inline: net}, Workload{Inline: net, Fused: true})
	plain, fused := &pts[0], &pts[1]
	if dramShare(fused) >= dramShare(plain) {
		t.Errorf("fusion did not reduce DRAM share: %g vs %g", dramShare(fused), dramShare(plain))
	}
	pb := albireo.RoleBreakdown(plain.Results...)[albireo.RoleBuffer] / float64(plain.MACs)
	fb := albireo.RoleBreakdown(fused.Results...)[albireo.RoleBuffer] / float64(fused.MACs)
	if fb <= pb {
		t.Errorf("fused buffer energy %g should exceed plain %g", fb, pb)
	}
}

// TestRunThroughput: a point's whole-network throughput is positive and
// within the conservative Albireo's 6912 MACs/cycle peak.
func TestRunThroughput(t *testing.T) {
	p := &runPoints(t, "conservative", 300, Workload{Inline: miniNet(1)})[0]
	if tp := float64(p.MACs) / p.Cycles; tp <= 0 || tp > 6912 {
		t.Errorf("throughput = %g", tp)
	}
	if p.PJPerMAC <= 0 {
		t.Error("non-positive energy")
	}
}
