package workload

import (
	"reflect"
	"testing"
)

// distinctShapes counts a network's distinct layer-shape fingerprints —
// the number of mapper searches a deduplicating evaluation actually runs.
func distinctShapes(n Network) int {
	seen := map[uint64]bool{}
	for i := range n.Layers {
		seen[n.Layers[i].ShapeFingerprint()] = true
	}
	return len(seen)
}

func TestVGG16Shape(t *testing.T) {
	n := VGG16(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Layers) != 16 {
		t.Fatalf("VGG16 has %d layers, want 16", len(n.Layers))
	}
	convs, fcs := 0, 0
	for i := range n.Layers {
		switch n.Layers[i].Type {
		case Conv:
			convs++
			if n.Layers[i].R != 3 || n.Layers[i].StrideH != 1 {
				t.Errorf("%s: VGG16 convolutions are all 3x3 stride 1", n.Layers[i].Name)
			}
		case FC:
			fcs++
		}
	}
	if convs != 13 || fcs != 3 {
		t.Fatalf("VGG16 = %d convs + %d fcs, want 13 + 3", convs, fcs)
	}
	// Known totals: ~15.35 GMACs of convolution + ~123.6 MMACs of FC.
	macs := n.MACs()
	if macs < 15_300_000_000 || macs > 15_600_000_000 {
		t.Errorf("VGG16 MACs = %d, want ~15.47G", macs)
	}
	// ~138M parameters.
	if w := n.WeightElems(); w < 130_000_000 || w > 145_000_000 {
		t.Errorf("VGG16 weights = %d, want ~138M", w)
	}
}

func TestAlexNetShape(t *testing.T) {
	n := AlexNet(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Layers) != 8 {
		t.Fatalf("AlexNet has %d layers, want 8", len(n.Layers))
	}
	c1 := n.Layers[0]
	if c1.R != 11 || c1.StrideH != 4 || c1.K != 96 {
		t.Errorf("conv1 = %v, want 11x11 stride 4, K=96", c1.String())
	}
	// The last three layers are the large FC layers that under-utilize
	// window-parallel photonic hardware (the Fig. 3 phenomenon).
	for _, l := range n.Layers[5:] {
		if l.Type != FC {
			t.Errorf("%s: want FC", l.Name)
		}
	}
	macs := n.MACs()
	if macs < 1_000_000_000 || macs > 1_200_000_000 {
		t.Errorf("AlexNet (ungrouped) MACs = %d, want ~1.13G", macs)
	}
}

func TestResNet18Shape(t *testing.T) {
	n := ResNet18(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// conv1 + 4 per stage1 + 5 per stages 2..4 + fc = 1+4+15+1 = 21.
	if len(n.Layers) != 21 {
		t.Fatalf("ResNet18 has %d layers, want 21", len(n.Layers))
	}
	if n.Layers[0].R != 7 || n.Layers[0].StrideH != 2 {
		t.Errorf("stem = %v, want 7x7 stride 2", n.Layers[0].String())
	}
	downsamples := 0
	for i := range n.Layers {
		if l := &n.Layers[i]; l.R == 1 && l.S == 1 && l.Type == Conv {
			downsamples++
			if l.StrideH < 2 && l.StrideW < 2 {
				t.Errorf("%s: downsample convs are stride 2", n.Layers[i].Name)
			}
		}
	}
	if downsamples != 3 {
		t.Errorf("ResNet18 has %d 1x1 downsample convs, want 3", downsamples)
	}
	macs := n.MACs()
	if macs < 1_780_000_000 || macs > 1_870_000_000 {
		t.Errorf("ResNet18 MACs = %d, want ~1.82G", macs)
	}
}

func TestZooByName(t *testing.T) {
	for name := range Zoo() {
		n, err := ByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * max(1, n.Layers[0].NPerBatch); n.Layers[0].N != want {
			t.Errorf("%s: batch not applied: N = %d, want %d", name, n.Layers[0].N, want)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := ByName("lenet", 1); err == nil {
		t.Error("ByName(lenet) succeeded, want error")
	}
}

func TestWithBatchScalesMACsLinearly(t *testing.T) {
	n1 := ResNet18(1)
	n8 := ResNet18(8)
	if n8.MACs() != 8*n1.MACs() {
		t.Errorf("batch-8 MACs = %d, want %d", n8.MACs(), 8*n1.MACs())
	}
	// Weight footprint is batch independent.
	if n8.WeightElems() != n1.WeightElems() {
		t.Errorf("weights changed with batch")
	}
}

func TestResNet50Shape(t *testing.T) {
	n := ResNet50(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// stem + 16 bottlenecks x 3 + 4 downsamples + fc.
	if len(n.Layers) != 54 {
		t.Fatalf("ResNet50 has %d layers, want 54", len(n.Layers))
	}
	pointwise := 0
	for i := range n.Layers {
		if l := &n.Layers[i]; l.Type == Conv && l.R == 1 && l.S == 1 {
			pointwise++
		}
	}
	// 2 x 16 bottleneck 1x1s + 4 downsamples: pointwise convs dominate.
	if pointwise != 36 {
		t.Errorf("ResNet50 has %d pointwise convs, want 36", pointwise)
	}
	// Published: ~4.1 GMACs, ~25.5M parameters (conv + fc, BN excluded).
	if macs := n.MACs(); macs < 3_950_000_000 || macs > 4_250_000_000 {
		t.Errorf("ResNet50 MACs = %d, want ~4.1G", macs)
	}
	if w := n.WeightElems(); w < 25_000_000 || w > 26_000_000 {
		t.Errorf("ResNet50 weights = %d, want ~25.5M", w)
	}
	// Repeated bottlenecks collapse: 54 layers, 24 distinct shapes (the
	// stage-1 stride-1 downsample even coincides with its conv3).
	if d := distinctShapes(n); d != 24 {
		t.Errorf("ResNet50 distinct shapes = %d, want 24", d)
	}
}

func TestMobileNetV2Shape(t *testing.T) {
	n := MobileNetV2(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// stem + block1 (no expand) x 2 + 16 blocks x 3 + head + fc.
	if len(n.Layers) != 53 {
		t.Fatalf("MobileNetV2 has %d layers, want 53", len(n.Layers))
	}
	dw := 0
	for i := range n.Layers {
		l := &n.Layers[i]
		if l.K == 1 && l.C == 1 && l.R == 3 {
			dw++
			if l.NPerBatch < 16 {
				t.Errorf("%s: depthwise NPerBatch = %d, want the folded channel count", l.Name, l.NPerBatch)
			}
		}
	}
	if dw != 17 {
		t.Errorf("MobileNetV2 has %d depthwise layers, want 17", dw)
	}
	// Published: ~300M multiply-adds; ~3.5M parameters (conv + fc, BN
	// excluded) minus the ~62k depthwise filters the batch folding
	// collapses (see NewDepthwise).
	if macs := n.MACs(); macs < 280_000_000 || macs > 320_000_000 {
		t.Errorf("MobileNetV2 MACs = %d, want ~300M", macs)
	}
	if w := n.WeightElems(); w < 3_300_000 || w > 3_600_000 {
		t.Errorf("MobileNetV2 weights = %d, want ~3.44M", w)
	}
}

func TestBERTBaseShape(t *testing.T) {
	n := BERTBase(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Layers) != 96 {
		t.Fatalf("BERTBase has %d layers, want 96 (12 blocks x 8 matmuls)", len(n.Layers))
	}
	for i := range n.Layers {
		if n.Layers[i].Type != FC {
			t.Errorf("%s: transformer blocks are all matmul (FC) layers", n.Layers[i].Name)
		}
	}
	// Published: ~11.2 GMACs (22.4 GFLOPs) at sequence 128; ~85M
	// projection parameters (embeddings excluded).
	if macs := n.MACs(); macs < 11_000_000_000 || macs > 11_350_000_000 {
		t.Errorf("BERTBase MACs = %d, want ~11.17G", macs)
	}
	if w := n.WeightElems(); w < 84_500_000 || w > 85_500_000 {
		t.Errorf("BERTBase weights = %d, want ~85.1M", w)
	}
	// The 12 identical blocks collapse to one block's distinct matmul
	// shapes, and q/k/v/out share one 768x768 shape: 96 layers, 5 distinct
	// searches — the shape-dedup property that makes transformer sweeps
	// cheap.
	if d := distinctShapes(n); d != 5 {
		t.Errorf("BERTBase distinct shapes = %d, want 5", d)
	}
}

func TestGPT2SmallShape(t *testing.T) {
	n := GPT2Small(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Layers) != 96 {
		t.Fatalf("GPT2Small has %d layers, want 96", len(n.Layers))
	}
	// Dense accounting at the full 1024-token context: ~106 GMACs.
	if macs := n.MACs(); macs < 105_000_000_000 || macs > 108_000_000_000 {
		t.Errorf("GPT2Small MACs = %d, want ~106.3G", macs)
	}
	if d := distinctShapes(n); d != 5 {
		t.Errorf("GPT2Small distinct shapes = %d, want 5", d)
	}
	// Same block shape as BERT-base; only the folded sequence axis grows.
	if n.WeightElems() <= 85_000_000 {
		t.Errorf("GPT2Small weights = %d, want > 85M (longer-seq attention operands)", n.WeightElems())
	}
}

// TestWithBatchPreservesFoldedAxes pins the NPerBatch contract: batching a
// transformer or depthwise workload rescales N instead of overwriting the
// folded sequence / channel axis.
func TestWithBatchPreservesFoldedAxes(t *testing.T) {
	for _, name := range []string{"bert_base", "gpt2_small", "mobilenet_v2"} {
		n1, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		n4, err := ByName(name, 4)
		if err != nil {
			t.Fatal(err)
		}
		if n4.MACs() != 4*n1.MACs() {
			t.Errorf("%s: batch-4 MACs = %d, want %d", name, n4.MACs(), 4*n1.MACs())
		}
		// WithBatch on an already-batched network is idempotent per batch:
		// the sweep engine resolves at batch b and re-applies WithBatch(b).
		reb := n4.WithBatch(4)
		if reb.MACs() != n4.MACs() {
			t.Errorf("%s: WithBatch(4) twice changed MACs: %d != %d", name, reb.MACs(), n4.MACs())
		}
		if n4.WeightElems() != n1.WeightElems() {
			t.Errorf("%s: weights changed with batch", name)
		}
	}
}

// TestZooEntriesConsistent keeps the registry and the name map in sync
// and guards the curated metadata every front end renders.
func TestZooEntriesConsistent(t *testing.T) {
	entries := ZooEntries()
	if len(entries) != len(Zoo()) {
		t.Fatalf("ZooEntries has %d entries, Zoo map %d", len(entries), len(Zoo()))
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if e.Name == "" || e.Family == "" || e.Description == "" || e.Build == nil {
			t.Errorf("entry %+v: all fields are required", e.Name)
		}
		if seen[e.Name] {
			t.Errorf("duplicate zoo entry %q", e.Name)
		}
		seen[e.Name] = true
		n := e.Build(1)
		if n.Name != e.Name {
			t.Errorf("entry %q builds network named %q", e.Name, n.Name)
		}
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
	families := map[string]bool{}
	for _, e := range entries {
		families[e.Family] = true
	}
	for _, want := range []string{"conv-era cnn", "modern cnn", "transformer"} {
		if !families[want] {
			t.Errorf("zoo has no %q entry", want)
		}
	}
}

func TestResNet34Shape(t *testing.T) {
	n := ResNet34(1)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	// conv1 + 2*(3+4+6+3) convs + 3 downsamples + fc = 1 + 32 + 3 + 1 = 37.
	if len(n.Layers) != 37 {
		t.Fatalf("ResNet34 has %d layers, want 37", len(n.Layers))
	}
	// ~3.67 GMACs at 224x224.
	macs := n.MACs()
	if macs < 3_500_000_000 || macs > 3_800_000_000 {
		t.Errorf("ResNet34 MACs = %d, want ~3.67G", macs)
	}
	// ~21.8M parameters.
	if w := n.WeightElems(); w < 20_000_000 || w > 23_000_000 {
		t.Errorf("ResNet34 weights = %d, want ~21.8M", w)
	}
	// Deeper than ResNet18 in both MACs and weights.
	r18 := ResNet18(1)
	if macs <= r18.MACs() || n.WeightElems() <= r18.WeightElems() {
		t.Error("ResNet34 should exceed ResNet18")
	}
}

// TestByNameMatchesBuild pins the zoo memo: ByName builds each entry once
// at batch 1 and derives the batch, which must equal building at that
// batch, and what it returns is the caller's own — changing it leaves the
// next call pristine.
func TestByNameMatchesBuild(t *testing.T) {
	for _, e := range ZooEntries() {
		for _, b := range []int{1, 2, 3, 8, 64} {
			got, err := ByName(e.Name, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := e.Build(b); !reflect.DeepEqual(got, want) {
				t.Fatalf("ByName(%q, %d) differs from Build(%d)", e.Name, b, b)
			}
			got.Layers[0].Name = "changed"
			got.Layers[0].N = -1
			again, err := ByName(e.Name, b)
			if err != nil {
				t.Fatal(err)
			}
			if want := e.Build(b); !reflect.DeepEqual(again, want) {
				t.Fatalf("ByName(%q, %d) after changing a returned network differs from Build(%d)", e.Name, b, b)
			}
		}
	}
	if _, err := ByName("no-such-net", 1); err == nil {
		t.Error("ByName accepted an unknown network")
	}
}
