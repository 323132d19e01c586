package workload

import (
	"bytes"
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestDimNamesRoundTrip(t *testing.T) {
	for _, d := range AllDims() {
		got, err := ParseDim(d.String())
		if err != nil {
			t.Fatalf("ParseDim(%q): %v", d.String(), err)
		}
		if got != d {
			t.Errorf("ParseDim(%q) = %v, want %v", d.String(), got, d)
		}
	}
	if _, err := ParseDim("Z"); err == nil {
		t.Error("ParseDim(Z) succeeded, want error")
	}
}

func TestTensorNamesRoundTrip(t *testing.T) {
	for _, tn := range AllTensors() {
		got, err := ParseTensor(tn.String())
		if err != nil {
			t.Fatalf("ParseTensor(%q): %v", tn.String(), err)
		}
		if got != tn {
			t.Errorf("ParseTensor(%q) = %v, want %v", tn.String(), got, tn)
		}
	}
	if _, err := ParseTensor("Psums"); err == nil {
		t.Error("ParseTensor(Psums) succeeded, want error")
	}
}

func TestRelevance(t *testing.T) {
	cases := []struct {
		tensor Tensor
		dims   []Dim
	}{
		{Weights, []Dim{DimK, DimC, DimR, DimS}},
		{Inputs, []Dim{DimN, DimC, DimP, DimQ, DimR, DimS}},
		{Outputs, []Dim{DimN, DimK, DimP, DimQ}},
	}
	for _, c := range cases {
		var got []Dim
		for _, d := range AllDims() {
			if Relevant(c.tensor, d) {
				got = append(got, d)
			}
		}
		if len(got) != len(c.dims) {
			t.Fatalf("%v relevant dims = %v, want %v", c.tensor, got, c.dims)
		}
		for i := range got {
			if got[i] != c.dims[i] {
				t.Errorf("%v relevant dims = %v, want %v", c.tensor, got, c.dims)
			}
		}
	}
}

func TestReductionDims(t *testing.T) {
	reduction := map[Dim]bool{}
	for _, d := range ReductionDims() {
		reduction[d] = true
	}
	for _, d := range AllDims() {
		// A dimension is a reduction dimension iff it is irrelevant to outputs
		// but relevant to at least one read tensor.
		derived := !Relevant(Outputs, d) && (Relevant(Weights, d) || Relevant(Inputs, d))
		if reduction[d] != derived {
			t.Errorf("ReductionDims() has %v = %v, inconsistent with relevance table", d, reduction[d])
		}
	}
}

func TestPointProduct(t *testing.T) {
	p := Ones()
	if p.Product() != 1 {
		t.Fatalf("Ones().Product() = %d", p.Product())
	}
	p[DimK] = 4
	p[DimC] = 3
	if p.Product() != 12 {
		t.Fatalf("Product = %d, want 12", p.Product())
	}
	q := Ones()
	q[DimK] = 2
	if p.Mul(q)[DimK] != 8 {
		t.Fatalf("Mul failed")
	}
}

func TestCeilDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{0, 1, 0}, {1, 1, 1}, {5, 3, 2}, {6, 3, 2}, {7, 3, 3}, {14, 32, 1},
	}
	for _, c := range cases {
		if got := CeilDiv(c.a, c.b); got != c.want {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLayerGeometry(t *testing.T) {
	l := NewConv("c", 1, 64, 3, 112, 112, 7, 7, 2, 3)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := l.InputH(); got != (112-1)*2+7 {
		t.Errorf("InputH = %d", got)
	}
	if l.MACs() != int64(64)*3*112*112*49 {
		t.Errorf("MACs = %d", l.MACs())
	}
	if l.TensorElems(Weights) != 64*3*49 {
		t.Errorf("weights = %d", l.TensorElems(Weights))
	}
	if l.TensorElems(Outputs) != 64*112*112 {
		t.Errorf("outputs = %d", l.TensorElems(Outputs))
	}
}

func TestFCIsDegenerateConv(t *testing.T) {
	l := NewFC("fc", 4, 1000, 512)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.MACs() != 4*1000*512 {
		t.Errorf("MACs = %d", l.MACs())
	}
	if l.InputH() != 1 || l.InputW() != 1 {
		t.Errorf("FC input extent = %dx%d, want 1x1", l.InputH(), l.InputW())
	}
	if l.R != 1 || l.S != 1 || l.StrideH != 1 || l.StrideW != 1 {
		t.Error("FC should be pointwise and unstrided")
	}
}

func TestLayerValidateRejectsBadShapes(t *testing.T) {
	l := NewConv("bad", 1, 0, 3, 8, 8, 3, 3, 1, 1)
	if err := l.Validate(); err == nil {
		t.Error("Validate accepted K=0")
	}
	l = NewConv("", 1, 8, 3, 8, 8, 3, 3, 1, 1)
	if err := l.Validate(); err == nil {
		t.Error("Validate accepted empty name")
	}
	l = NewConv("neg", 1, 8, 3, 8, 8, 3, 3, 1, -1)
	if err := l.Validate(); err == nil {
		t.Error("Validate accepted negative padding")
	}
	fc := NewFC("fc", 1, 10, 10)
	fc.R = 3
	if err := fc.Validate(); err == nil {
		t.Error("Validate accepted FC with R=3")
	}
}

func TestInputRangeHalo(t *testing.T) {
	// A 3-wide output tile with a 3-wide filter at stride 1 touches 5 inputs.
	if got := InputRange(3, 3, 1, 1); got != 5 {
		t.Errorf("InputRange(3,3,1,1) = %d, want 5", got)
	}
	// Stride 2 removes overlap: 3 outputs, 3-wide filter -> 7 inputs.
	if got := InputRange(3, 3, 2, 1); got != 7 {
		t.Errorf("InputRange(3,3,2,1) = %d, want 7", got)
	}
	// Degenerate.
	if got := InputRange(1, 1, 1, 1); got != 1 {
		t.Errorf("InputRange(1,1,1,1) = %d, want 1", got)
	}
	if got := InputRange(0, 3, 1, 1); got != 0 {
		t.Errorf("InputRange(0,...) = %d, want 0", got)
	}
}

func TestTileElemsFullTileMatchesTensorElems(t *testing.T) {
	l := NewConv("c", 2, 32, 16, 28, 28, 3, 3, 1, 1)
	full := l.Bounds()
	for _, tensor := range AllTensors() {
		if got, want := l.TileElems(tensor, full), l.TensorElems(tensor); got != want {
			t.Errorf("TileElems(%v, full) = %d, want %d", tensor, got, want)
		}
	}
}

// Property: a tile never exceeds the full tensor, and growing any extent
// never shrinks a tile.
func TestTileElemsMonotone(t *testing.T) {
	l := NewConv("c", 2, 8, 8, 12, 12, 3, 3, 2, 1)
	f := func(a, b, c, d, e, g, h uint8) bool {
		ext := Ones()
		bounds := l.Bounds()
		raw := []int{int(a), int(b), int(c), int(d), int(e), int(g), int(h)}
		for i, d := range AllDims() {
			ext[d] = 1 + raw[i]%bounds[d]
		}
		for _, tensor := range AllTensors() {
			tile := l.TileElems(tensor, ext)
			if tile < 1 || tile > l.TensorElems(tensor) {
				return false
			}
			for _, d := range AllDims() {
				if ext[d] < bounds[d] {
					grown := ext
					grown[d]++
					if l.TileElems(tensor, grown) < tile {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWithBatch(t *testing.T) {
	l := NewConv("c", 1, 8, 8, 8, 8, 3, 3, 1, 1)
	l2 := l.WithBatch(16)
	if l2.N != 16 || l.N != 1 {
		t.Errorf("WithBatch mutated original or failed: %d %d", l.N, l2.N)
	}
}

func TestNetworkJSONRoundTrip(t *testing.T) {
	n := VGG16(1)
	buf, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeNetworkJSON(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != n.Name || len(got.Layers) != len(n.Layers) {
		t.Fatalf("round trip mismatch: %s %d layers", got.Name, len(got.Layers))
	}
	if got.MACs() != n.MACs() {
		t.Errorf("MACs changed in round trip: %d vs %d", got.MACs(), n.MACs())
	}
}

func TestDecodeNetworkJSONRejectsGarbage(t *testing.T) {
	if _, err := DecodeNetworkJSON(bytes.NewBufferString(`{"name":"x","layers":[{"name":"l","n":0}]}`)); err == nil {
		t.Error("decoder accepted invalid layer")
	}
	if _, err := DecodeNetworkJSON(bytes.NewBufferString(`{"bogus":1}`)); err == nil {
		t.Error("decoder accepted unknown fields")
	}
}
