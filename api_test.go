package photoloop_test

import (
	"testing"

	"photoloop"
)

// The facade tests exercise the public API end to end the way a downstream
// user would, without touching internal packages.

func TestPublicQuickstartFlow(t *testing.T) {
	cfg := photoloop.Albireo(photoloop.Conservative)
	a, err := cfg.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.PeakMACsPerCycle() != 6912 {
		t.Errorf("peak = %d", a.PeakMACsPerCycle())
	}
	layer := photoloop.NewConv("conv", 1, 96, 64, 32, 32, 3, 3, 1, 1)
	best, err := photoloop.Search(a, &layer, photoloop.SearchOptions{
		Budget: 300, Seed: 1,
		Seeds: photoloop.SeedList(photoloop.AlbireoCanonicalMappings(a, &layer)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if best.Result.PJPerMAC() <= 0 || best.Result.Utilization <= 0 {
		t.Errorf("bad result: %v", best.Result)
	}
}

func TestPublicManualMapping(t *testing.T) {
	a, err := photoloop.Albireo(photoloop.Aggressive).Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewFC("fc", 1, 1000, 512)
	seeds := photoloop.AlbireoCanonicalMappings(a, &layer)
	if len(seeds) == 0 {
		t.Fatal("no canonical mapping for FC")
	}
	res, err := photoloop.Evaluate(a, &layer, seeds[0], photoloop.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.MACs != layer.MACs() {
		t.Errorf("MACs = %d, want %d", res.MACs, layer.MACs())
	}
}

func TestPublicWorkloadZoo(t *testing.T) {
	for _, name := range []string{"vgg16", "alexnet", "resnet18"} {
		net, err := photoloop.NetworkByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := net.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := photoloop.NetworkByName("mobilenet", 1); err == nil {
		t.Error("unknown network accepted")
	}
}

func TestPublicComponentRegistry(t *testing.T) {
	classes := photoloop.ComponentClasses()
	if len(classes) < 10 {
		t.Errorf("only %d component classes", len(classes))
	}
	c, err := photoloop.BuildComponent("mzm", "mod", photoloop.ComponentParams{"modulate_pj": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if c.Class() != "mzm" {
		t.Errorf("class = %s", c.Class())
	}
	lib := photoloop.NewComponentLibrary()
	if err := lib.Add(c); err != nil {
		t.Fatal(err)
	}
}

func TestPublicNetworkEval(t *testing.T) {
	net := photoloop.Network{Name: "tiny", Layers: []photoloop.Layer{
		photoloop.NewConv("c1", 1, 64, 64, 28, 28, 3, 3, 1, 1),
	}}
	res, err := photoloop.EvalSpec(&photoloop.EvalRequest{
		Albireo: &photoloop.SweepAlbireoBase{Scaling: "moderate"},
		Inline:  &net, Budget: 200, Seed: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.PJPerMAC <= 0 {
		t.Error("bad energy")
	}
}

func TestPublicFigureHarnesses(t *testing.T) {
	cfg := photoloop.ExperimentConfig{Budget: 200, Seed: 1}
	f2, err := photoloop.Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if f2.AvgAbsErrPct > 5 {
		t.Errorf("fig2 error %.2f%%", f2.AvgAbsErrPct)
	}
	abl, err := photoloop.Ablations(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(abl.Rows) != 4 {
		t.Errorf("ablations rows = %d", len(abl.Rows))
	}
}

func TestPublicElectricalBaseline(t *testing.T) {
	a, err := photoloop.ElectricalBaseline().Build()
	if err != nil {
		t.Fatal(err)
	}
	layer := photoloop.NewConv("c", 1, 64, 64, 14, 14, 3, 3, 1, 1)
	best, err := photoloop.Search(a, &layer, photoloop.SearchOptions{Budget: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if photoloop.AlbireoConverterPJ(best.Result) != 0 {
		t.Error("an all-digital design has no cross-domain conversions")
	}
	if photoloop.AlbireoAcceleratorPJ(best.Result) <= 0 {
		t.Error("accelerator energy should be positive")
	}
}
