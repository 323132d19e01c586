package workload

import (
	"fmt"
	"sync"
)

// This file contains the layer tables of the built-in workload zoo. The
// conv-era entries are the DNNs evaluated in the paper: VGG16 and AlexNet
// (throughput validation, Fig. 3) and ResNet18 (full-system and
// architecture exploration, Figs. 4 and 5); shapes follow the original
// publications with 224x224 ImageNet inputs. AlexNet is modeled ungrouped
// (the common convention in dataflow-modeling work; grouping does not
// change the under-utilization phenomena the paper studies: large strided
// filters and fully-connected layers). The modern-CNN entries (ResNet-50's
// bottleneck 1x1s, MobileNetV2's depthwise+pointwise inverted residuals)
// and the transformer entries (BERT-base and GPT-2-small encoder blocks as
// matmuls with sequence folded into the batch dimension) open the scenario
// axes the paper's related work motivates: pointwise-dominated and
// attention-style workloads stress photonic organizations very differently
// from 3x3-conv CNNs.

// VGG16 returns the VGG16 network (13 convolutions + 3 fully-connected
// layers) at the given batch size.
func VGG16(batch int) Network {
	type cfg struct {
		name string
		k, c int
		hw   int
	}
	convs := []cfg{
		{"conv1_1", 64, 3, 224}, {"conv1_2", 64, 64, 224},
		{"conv2_1", 128, 64, 112}, {"conv2_2", 128, 128, 112},
		{"conv3_1", 256, 128, 56}, {"conv3_2", 256, 256, 56}, {"conv3_3", 256, 256, 56},
		{"conv4_1", 512, 256, 28}, {"conv4_2", 512, 512, 28}, {"conv4_3", 512, 512, 28},
		{"conv5_1", 512, 512, 14}, {"conv5_2", 512, 512, 14}, {"conv5_3", 512, 512, 14},
	}
	n := Network{Name: "vgg16"}
	for _, c := range convs {
		n.Layers = append(n.Layers, NewConv(c.name, batch, c.k, c.c, c.hw, c.hw, 3, 3, 1, 1))
	}
	n.Layers = append(n.Layers,
		NewFC("fc6", batch, 4096, 25088),
		NewFC("fc7", batch, 4096, 4096),
		NewFC("fc8", batch, 1000, 4096),
	)
	return n
}

// AlexNet returns the (ungrouped) AlexNet network at the given batch size:
// five convolutions — including the 11x11 stride-4 first layer and the 5x5
// second layer that under-utilize window-parallel hardware — plus three
// fully-connected layers.
func AlexNet(batch int) Network {
	n := Network{Name: "alexnet"}
	n.Layers = append(n.Layers,
		NewConv("conv1", batch, 96, 3, 55, 55, 11, 11, 4, 2),
		NewConv("conv2", batch, 256, 96, 27, 27, 5, 5, 1, 2),
		NewConv("conv3", batch, 384, 256, 13, 13, 3, 3, 1, 1),
		NewConv("conv4", batch, 384, 384, 13, 13, 3, 3, 1, 1),
		NewConv("conv5", batch, 256, 384, 13, 13, 3, 3, 1, 1),
		NewFC("fc6", batch, 4096, 9216),
		NewFC("fc7", batch, 4096, 4096),
		NewFC("fc8", batch, 1000, 4096),
	)
	return n
}

// ResNet18 returns the ResNet-18 network at the given batch size: the 7x7
// stride-2 stem, four stages of basic blocks (including the 1x1 stride-2
// downsample convolutions on the residual paths), and the final classifier.
func ResNet18(batch int) Network {
	n := Network{Name: "resnet18"}
	add := func(l Layer) { n.Layers = append(n.Layers, l) }

	add(NewConv("conv1", batch, 64, 3, 112, 112, 7, 7, 2, 3))
	// After 3x3/2 max pooling the feature map is 56x56.

	// Stage 1: 64 channels, 56x56, two basic blocks, no downsample.
	for b := 1; b <= 2; b++ {
		add(NewConv(fmt.Sprintf("layer1.%d.conv1", b), batch, 64, 64, 56, 56, 3, 3, 1, 1))
		add(NewConv(fmt.Sprintf("layer1.%d.conv2", b), batch, 64, 64, 56, 56, 3, 3, 1, 1))
	}

	stage := func(idx, cin, cout, hw int) {
		// Block 1 halves the feature map and doubles channels.
		add(NewConv(fmt.Sprintf("layer%d.1.conv1", idx), batch, cout, cin, hw, hw, 3, 3, 2, 1))
		add(NewConv(fmt.Sprintf("layer%d.1.conv2", idx), batch, cout, cout, hw, hw, 3, 3, 1, 1))
		add(NewConv(fmt.Sprintf("layer%d.1.downsample", idx), batch, cout, cin, hw, hw, 1, 1, 2, 0))
		// Block 2 is shape preserving.
		add(NewConv(fmt.Sprintf("layer%d.2.conv1", idx), batch, cout, cout, hw, hw, 3, 3, 1, 1))
		add(NewConv(fmt.Sprintf("layer%d.2.conv2", idx), batch, cout, cout, hw, hw, 3, 3, 1, 1))
	}
	stage(2, 64, 128, 28)
	stage(3, 128, 256, 14)
	stage(4, 256, 512, 7)

	add(NewFC("fc", batch, 1000, 512))
	return n
}

// ResNet34 returns the ResNet-34 network at the given batch size: the same
// stem and stage structure as ResNet-18 with {3,4,6,3} basic blocks.
func ResNet34(batch int) Network {
	n := Network{Name: "resnet34"}
	add := func(l Layer) { n.Layers = append(n.Layers, l) }

	add(NewConv("conv1", batch, 64, 3, 112, 112, 7, 7, 2, 3))

	stage := func(idx, cin, cout, hw, blocks int, downsample bool) {
		for b := 1; b <= blocks; b++ {
			in, stride := cout, 1
			if b == 1 {
				in = cin
				if downsample {
					stride = 2
				}
			}
			add(NewConv(fmt.Sprintf("layer%d.%d.conv1", idx, b), batch, cout, in, hw, hw, 3, 3, stride, 1))
			add(NewConv(fmt.Sprintf("layer%d.%d.conv2", idx, b), batch, cout, cout, hw, hw, 3, 3, 1, 1))
			if b == 1 && downsample {
				add(NewConv(fmt.Sprintf("layer%d.%d.downsample", idx, b), batch, cout, cin, hw, hw, 1, 1, 2, 0))
			}
		}
	}
	stage(1, 64, 64, 56, 3, false)
	stage(2, 64, 128, 28, 4, true)
	stage(3, 128, 256, 14, 6, true)
	stage(4, 256, 512, 7, 3, true)

	add(NewFC("fc", batch, 1000, 512))
	return n
}

// ResNet50 returns the ResNet-50 network at the given batch size: the 7x7
// stride-2 stem and four stages of bottleneck blocks ({3,4,6,3} blocks of
// 1x1 reduce / 3x3 / 1x1 expand, stride on the 3x3 as in the torchvision
// reference, with 1x1 projection convolutions on the residual paths), and
// the final classifier. The bottleneck 1x1s make pointwise convolutions —
// no window parallelism to exploit — the dominant layer population.
func ResNet50(batch int) Network {
	n := Network{Name: "resnet50"}
	add := func(l Layer) { n.Layers = append(n.Layers, l) }

	add(NewConv("conv1", batch, 64, 3, 112, 112, 7, 7, 2, 3))
	// After 3x3/2 max pooling the feature map is 56x56.

	in := 64
	stage := func(idx, planes, blocks, stride, hwOut int) {
		hwIn := hwOut * stride
		for b := 1; b <= blocks; b++ {
			s, hw1 := 1, hwOut
			if b == 1 {
				s, hw1 = stride, hwIn
			}
			add(NewConv(fmt.Sprintf("layer%d.%d.conv1", idx, b), batch, planes, in, hw1, hw1, 1, 1, 1, 0))
			add(NewConv(fmt.Sprintf("layer%d.%d.conv2", idx, b), batch, planes, planes, hwOut, hwOut, 3, 3, s, 1))
			add(NewConv(fmt.Sprintf("layer%d.%d.conv3", idx, b), batch, 4*planes, planes, hwOut, hwOut, 1, 1, 1, 0))
			if b == 1 {
				add(NewConv(fmt.Sprintf("layer%d.%d.downsample", idx, b), batch, 4*planes, in, hwOut, hwOut, 1, 1, s, 0))
			}
			in = 4 * planes
		}
	}
	stage(1, 64, 3, 1, 56)
	stage(2, 128, 4, 2, 28)
	stage(3, 256, 6, 2, 14)
	stage(4, 512, 3, 2, 7)

	add(NewFC("fc", batch, 1000, 2048))
	return n
}

// MobileNetV2 returns the MobileNetV2 (width 1.0, 224x224) network at the
// given batch size: the 3x3 stride-2 stem, seven groups of inverted
// residual blocks (1x1 expansion, 3x3 depthwise, 1x1 linear projection),
// the 1x1 head convolution and the classifier. Depthwise layers use the
// batch-folded dense projection (see NewDepthwise): MACs and activation
// footprints are exact; the per-channel filters are modeled as one shared
// filter, so the ~62k depthwise weights (of ~3.5M parameters) collapse to
// a few tens.
func MobileNetV2(batch int) Network {
	n := Network{Name: "mobilenet_v2"}
	add := func(l Layer) { n.Layers = append(n.Layers, l) }

	add(NewConv("stem", batch, 32, 3, 112, 112, 3, 3, 2, 1))

	in, hw, block := 32, 112, 0
	group := func(t, c, blocks, stride int) {
		for b := 1; b <= blocks; b++ {
			block++
			s := 1
			if b == 1 {
				s = stride
			}
			hidden := in * t
			if t != 1 {
				add(NewConv(fmt.Sprintf("block%d.expand", block), batch, hidden, in, hw, hw, 1, 1, 1, 0))
			}
			hw /= s
			add(NewDepthwise(fmt.Sprintf("block%d.dw", block), batch, hidden, hw, hw, 3, 3, s, 1))
			add(NewConv(fmt.Sprintf("block%d.project", block), batch, c, hidden, hw, hw, 1, 1, 1, 0))
			in = c
		}
	}
	// The paper's (expansion, channels, blocks, stride) table.
	group(1, 16, 1, 1)
	group(6, 24, 2, 2)
	group(6, 32, 3, 2)
	group(6, 64, 4, 2)
	group(6, 96, 3, 1)
	group(6, 160, 3, 2)
	group(6, 320, 1, 1)

	add(NewConv("head", batch, 1280, 320, 7, 7, 1, 1, 1, 0))
	add(NewFC("fc", batch, 1000, 1280))
	return n
}

// encoderBlocks builds `blocks` identical transformer encoder blocks as
// matmul layers with the sequence axis folded into the batch dimension
// (N = batch x seq for the projections, batch x heads x seq for the
// per-head attention matmuls; see Layer.NPerBatch). The QK^T score and
// attention-x-V context matmuls are activation-activation products: their
// K operand occupies the Weights slot of the 7-D projection, shared
// across the folded head axis — exact MACs, optimistic K/V reuse across
// heads. Attention masking (causal or padding) is ignored, as in dense
// FLOP accounting.
func encoderBlocks(prefix string, batch, blocks, seq, hidden, heads, ffn int) []Layer {
	headDim := hidden / heads
	at := func(name string, perBatch, k, c int) Layer {
		l := NewMatmul(name, batch*perBatch, k, c)
		l.NPerBatch = perBatch
		return l
	}
	var layers []Layer
	for i := 1; i <= blocks; i++ {
		p := fmt.Sprintf("%s%d", prefix, i)
		layers = append(layers,
			at(p+".attn.query", seq, hidden, hidden),
			at(p+".attn.key", seq, hidden, hidden),
			at(p+".attn.value", seq, hidden, hidden),
			at(p+".attn.scores", heads*seq, seq, headDim),
			at(p+".attn.context", heads*seq, headDim, seq),
			at(p+".attn.out", seq, hidden, hidden),
			at(p+".ffn.expand", seq, ffn, hidden),
			at(p+".ffn.project", seq, hidden, ffn),
		)
	}
	return layers
}

// BERTBase returns the BERT-base encoder stack (12 blocks, hidden 768, 12
// heads, FFN 3072) at sequence length 128, expressed as matmul layers with
// batch x sequence folded into N. Embedding lookup, layer norms, softmax
// and the pooler are omitted (they are not MAC workloads); at batch 1 the
// stack is ~11.2 GMACs over ~85M projection parameters.
func BERTBase(batch int) Network {
	return Network{Name: "bert_base", Layers: encoderBlocks("enc", batch, 12, 128, 768, 12, 3072)}
}

// GPT2Small returns the GPT-2-small decoder stack (12 blocks, hidden 768,
// 12 heads, FFN 3072) at its full 1024-token context, expressed as matmul
// layers with batch x sequence folded into N. Causal masking is ignored
// (dense-matmul accounting, the convention of FLOP tables); embeddings and
// normalization are omitted. At batch 1 the stack is ~106 GMACs — a
// long-sequence stress of the same block shape BERTBase exercises at
// sequence 128.
func GPT2Small(batch int) Network {
	return Network{Name: "gpt2_small", Layers: encoderBlocks("block", batch, 12, 1024, 768, 12, 3072)}
}

// ZooEntry describes one built-in workload: its registry name, a coarse
// family tag ("conv-era cnn", "modern cnn", "transformer"), a one-line
// description (surfaced by `photoloop networks`, GET /v1/networks and the
// generated README table), and the builder.
type ZooEntry struct {
	Name        string
	Family      string
	Description string
	Build       func(batch int) Network
}

// ZooEntries returns the built-in workloads in curated order (paper
// workloads first, then the modern-CNN and transformer extensions). The
// slice is freshly allocated; callers may reorder it.
func ZooEntries() []ZooEntry {
	return []ZooEntry{
		{"vgg16", "conv-era cnn", "13 uniform 3x3 convs + 3 large FC layers (paper Fig. 3)", VGG16},
		{"alexnet", "conv-era cnn", "11x11/4 stem and 5x5 conv2 that under-utilize window-parallel hardware (paper Fig. 3)", AlexNet},
		{"resnet18", "conv-era cnn", "basic-block residual CNN (paper Figs. 4-5)", ResNet18},
		{"resnet34", "conv-era cnn", "deeper basic-block residual CNN ({3,4,6,3} blocks)", ResNet34},
		{"resnet50", "modern cnn", "bottleneck residual CNN dominated by pointwise 1x1 convs", ResNet50},
		{"mobilenet_v2", "modern cnn", "inverted residuals: 1x1 expand, 3x3 depthwise, 1x1 project", MobileNetV2},
		{"bert_base", "transformer", "12 encoder blocks, hidden 768, seq 128, as batched matmuls", BERTBase},
		{"gpt2_small", "transformer", "12 decoder blocks, hidden 768, seq 1024, as batched matmuls", GPT2Small},
	}
}

// Zoo returns every built-in network builder keyed by name.
func Zoo() map[string]func(batch int) Network {
	entries := ZooEntries()
	m := make(map[string]func(int) Network, len(entries))
	for _, e := range entries {
		m[e.Name] = e.Build
	}
	return m
}

// zooAtBatch1 holds each zoo entry's network at batch 1, built on its
// first use: asking for one entry builds no other.
var zooAtBatch1 = func() map[string]func() Network {
	entries := ZooEntries()
	m := make(map[string]func() Network, len(entries))
	for _, e := range entries {
		m[e.Name] = sync.OnceValue(func() Network { return e.Build(1) })
	}
	return m
}()

// ByName returns a zoo network by name at the given batch size. Each entry
// is built once per process; every call returns a copy the caller owns
// (Network.WithBatch copies the layers, and a Layer holds only values),
// equal to the entry's Build(batch).
func ByName(name string, batch int) (Network, error) {
	n, ok := zooAtBatch1[name]
	if !ok {
		return Network{}, fmt.Errorf("workload: unknown network %q", name)
	}
	return n().WithBatch(batch), nil
}
