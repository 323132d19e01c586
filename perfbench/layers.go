package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"photoloop/internal/arch"
	"photoloop/internal/model"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// layerRef names one layer of one zoo network.
type layerRef struct{ Network, Layer string }

// index resolves search keys back to what was searched: architecture
// fingerprints to the architectures the workload built, and layer shape
// fingerprints (workload.Layer.ShapeFingerprint) to every zoo layer of
// that shape.
type index struct {
	arches    map[uint64]*arch.Arch
	archNames map[uint64]string
	layers    map[uint64]*workload.Layer
	uses      map[uint64][]layerRef
}

// newIndex indexes the whole zoo at batch 1 and every preset.
func newIndex() (*index, error) {
	ix := &index{
		arches: map[uint64]*arch.Arch{}, archNames: map[uint64]string{},
		layers: map[uint64]*workload.Layer{}, uses: map[uint64][]layerRef{},
	}
	for _, e := range workload.ZooEntries() {
		n := e.Build(1)
		for i := range n.Layers {
			l := &n.Layers[i]
			fp := l.ShapeFingerprint()
			if _, ok := ix.layers[fp]; !ok {
				ix.layers[fp] = l
			}
			ix.uses[fp] = append(ix.uses[fp], layerRef{e.Name, l.Name})
		}
	}
	for _, p := range presets.All() {
		a, err := p.Build()
		if err != nil {
			return nil, fmt.Errorf("building preset %s: %w", p.Name, err)
		}
		ix.addArch(p.Name, a)
	}
	return ix, nil
}

func (ix *index) addArch(name string, a *arch.Arch) {
	fp := a.Fingerprint()
	ix.arches[fp] = a
	ix.archNames[fp] = name
}

// modelTimes times the analytical model's public entry points on the
// workload's own (architecture, layer, best mapping) triples: Compile
// once per triple, then reps rounds of EvaluateInto, LowerBound, and a
// Stage/FinishStaged pair, each call timed on its own. It returns the
// median per call across all samples. At most limit triples are used,
// spread evenly over the records.
func modelTimes(ix *index, recs []searchRecord, reps, limit int) (map[string]float64, error) {
	step := max(1, len(recs)/limit)
	var compile, eval, bound, stage, finish []float64
	opts := model.Options{}
	var res model.Result
	for i := 0; i < len(recs); i += step {
		k, b := recs[i].Key, recs[i].Best
		a, l := ix.arches[k.Arch], ix.layers[k.Layer]
		if a == nil || l == nil {
			return nil, fmt.Errorf("search key %x/%x names an architecture or layer the benchmark did not build", k.Arch, k.Layer)
		}
		t0 := time.Now()
		c, err := model.Compile(a, l)
		compile = append(compile, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			return nil, err
		}
		s := c.Engine().NewScratch()
		m := b.Mapping
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			err := c.EvaluateInto(s, m, &res, opts)
			t1 := time.Now()
			c.LowerBound(s, m, opts)
			t2 := time.Now()
			_, serr := c.Stage(s, m, opts, 0, 0, math.Inf(1))
			t3 := time.Now()
			ferr := c.FinishStaged(s, &res, opts)
			t4 := time.Now()
			if err != nil || serr != nil || ferr != nil {
				return nil, fmt.Errorf("re-evaluating a searched mapping: %v %v %v", err, serr, ferr)
			}
			eval = append(eval, float64(t1.Sub(t0)))
			bound = append(bound, float64(t2.Sub(t1)))
			stage = append(stage, float64(t3.Sub(t2)))
			finish = append(finish, float64(t4.Sub(t3)))
		}
	}
	if len(compile) == 0 {
		return nil, fmt.Errorf("no searches to time the model on")
	}
	return map[string]float64{
		"model.compile_us":    Median(compile),
		"model.evaluate_ns":   Median(eval),
		"model.lowerbound_ns": Median(bound),
		"model.stage_ns":      Median(stage),
		"model.finish_ns":     Median(finish),
	}, nil
}

// setModelLayers times the model on the records and reports the result.
func setModelLayers(r *report, ix *index, recs []searchRecord) error {
	mt, err := modelTimes(ix, recs, 20, 300)
	if err != nil {
		return err
	}
	for name, v := range mt {
		unit := "ns"
		if name == "model.compile_us" {
			unit = "us"
		}
		r.setLayer(name, unit, v)
	}
	return nil
}

// setSearchLayers reports the mapper-layer metrics of the traced
// searches: funnel totals per traced operation (divided by ops) and the
// search time distribution.
func setSearchLayers(r *report, counts workCounts, ops int, spans []Span) {
	per := func(n int) float64 { return float64(n) / float64(max(ops, 1)) }
	r.setLayer("mapper.searches", "count", per(counts.Searches))
	r.setLayer("mapper.evaluations", "count", per(counts.Evaluations))
	r.setLayer("mapper.pruned", "count", per(counts.Pruned))
	r.setLayer("mapper.delta_evals", "count", per(counts.DeltaEvals))
	r.setLayer("mapper.full_evals", "count", per(counts.FullEvals))
	r.setLayer("mapper.duplicates", "count", per(counts.Duplicates))
	r.setLayer("mapper.invalid", "count", per(counts.Invalid))
	r.setLayer("mapper.pruned_fraction", "ratio", counts.PrunedFraction())
	d := durationsMS(spans)
	var busy float64
	for _, v := range d {
		busy += v
	}
	r.setLayer("mapper.search_busy_ms", "ms", busy/float64(max(ops, 1)))
	r.setLayer("mapper.search_p50_ms", "ms", Median(d))
	r.setLayer("mapper.search_max_ms", "ms", Quantile(d, 1))
}

// layerRow is one line of the per-network-layer table.
type layerRow struct {
	Preset, Network, Layer string
	// Owner marks the first zoo layer of its shape: the row that owns
	// the shared search, so summing owner rows counts each search once.
	Owner          bool
	Searches       int
	SearchMS       float64
	Evaluations    int
	PrunedFraction float64
}

// layerTable attributes each traced search to every zoo layer of its
// shape on its architecture. Search time is the median across traced
// operations of the summed time of the layer's searches (one per
// objective); counts come from one operation, since they repeat exactly.
func layerTable(ix *index, ops [][]searchRecord) []layerRow {
	type agg struct {
		ms                      []float64
		searches, evals, pruned int
		scored                  int
	}
	type akey struct{ arch, shape uint64 }
	per := map[akey]*agg{}
	for i, recs := range ops {
		sum := map[akey]float64{}
		for _, rec := range recs {
			k := akey{rec.Key.Arch, rec.Key.Layer}
			sum[k] += ms(rec.Span.Dur())
			if i == 0 {
				a := per[k]
				if a == nil {
					a = &agg{}
					per[k] = a
				}
				st := rec.Best.Stats
				a.searches++
				a.evals += rec.Best.Evaluations
				a.pruned += st.Pruned
				a.scored += st.Pruned + st.DeltaEvals + st.FullEvals
			}
		}
		for k, v := range sum {
			if a := per[k]; a != nil {
				a.ms = append(a.ms, v)
			}
		}
	}
	var rows []layerRow
	for k, a := range per {
		pf := 0.0
		if a.scored > 0 {
			pf = float64(a.pruned) / float64(a.scored)
		}
		for i, u := range ix.uses[k.shape] {
			rows = append(rows, layerRow{
				Preset: ix.archNames[k.arch], Network: u.Network, Layer: u.Layer, Owner: i == 0,
				Searches: a.searches, SearchMS: Median(a.ms), Evaluations: a.evals, PrunedFraction: pf,
			})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.SearchMS != b.SearchMS {
			return a.SearchMS > b.SearchMS
		}
		if a.Preset != b.Preset {
			return a.Preset < b.Preset
		}
		if a.Network != b.Network {
			return a.Network < b.Network
		}
		return a.Layer < b.Layer
	})
	return rows
}

// writeLayerTable writes the table as tab-separated values.
func writeLayerTable(w io.Writer, rows []layerRow) error {
	if _, err := fmt.Fprintln(w, "preset\tnetwork\tlayer\towner\tsearches\tsearch_ms\tevaluations\tpruned_fraction"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s\t%s\t%s\t%t\t%d\t%.3f\t%d\t%.4f\n",
			r.Preset, r.Network, r.Layer, r.Owner, r.Searches, r.SearchMS, r.Evaluations, r.PrunedFraction); err != nil {
			return err
		}
	}
	return nil
}
