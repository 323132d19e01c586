package sweep

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapper"
	"photoloop/internal/presets"
	"photoloop/internal/workload"
)

// swapSeedPrints installs m as the memo's contents and returns a func
// restoring the previous ones.
func swapSeedPrints(m map[seedKey][]uint64) (restore func()) {
	seedPrints.mu.Lock()
	old := seedPrints.m
	seedPrints.m = m
	seedPrints.mu.Unlock()
	return func() {
		seedPrints.mu.Lock()
		seedPrints.m = old
		seedPrints.mu.Unlock()
	}
}

// TestSeedPrintsMatchCanonical: for every Albireo preset and every zoo
// layer shape, the memoized prints are the fingerprints of a freshly
// built canonical seed set, and a memoized key builds exactly those
// seeds. It also sizes study-cold's working set against the cap.
func TestSeedPrintsMatchCanonical(t *testing.T) {
	defer swapSeedPrints(map[seedKey][]uint64{})()
	for _, p := range presets.All() {
		if _, ok := p.Albireo(); !ok {
			continue
		}
		a, err := p.Build()
		if err != nil {
			t.Fatal(err)
		}
		sess, err := mapper.NewSession(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range workload.ZooEntries() {
			net := e.Build(1)
			for i := range net.Layers {
				l := &net.Layers[i]
				shape := l.ShapeFingerprint()
				want := mapper.SeedList(albireo.CanonicalMappings(a, l)).Prints()
				canonicalSeeds(sess, l, shape)
				got, ok := seedPrints.get(seedKey{sess.Fingerprint(), shape})
				if !ok || !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s/%s: memo prints %v, want %v", p.Name, net.Name, l.Name, got, want)
				}
				if lazy := canonicalSeeds(sess, l, shape).Prints(); !reflect.DeepEqual(lazy, want) {
					t.Fatalf("%s %s/%s: memoized seeds print %v, want %v", p.Name, net.Name, l.Name, lazy, want)
				}
			}
		}
	}
	n := len(seedPrints.m)
	t.Logf("every Albireo preset x zoo layer shape: %d memo entries (cap %d)", n, maxSeedPrints)
	if n > maxSeedPrints {
		t.Errorf("study working set %d exceeds the memo cap %d", n, maxSeedPrints)
	}
}

// TestSeedPrintsBounded: filling the memo past its cap keeps it at or
// below the cap.
func TestSeedPrintsBounded(t *testing.T) {
	defer swapSeedPrints(map[seedKey][]uint64{})()
	prints := []uint64{1, 2, 3}
	for i := 0; i < 2*maxSeedPrints+7; i++ {
		seedPrints.put(seedKey{arch: 1, shape: uint64(i)}, prints)
		if n := len(seedPrints.m); n > maxSeedPrints {
			t.Fatalf("after %d inserts the memo holds %d entries, cap %d", i+1, n, maxSeedPrints)
		}
	}
}

// TestConcurrentEvalSharedCache runs Evals concurrently on one shared
// cache, starting from an empty seed memo, and checks every answer
// against a serial evaluation; run it under -race -count=10.
func TestConcurrentEvalSharedCache(t *testing.T) {
	reqs := []EvalRequest{
		{Preset: "albireo", Network: "resnet18", Objective: "energy"},
		{Preset: "albireo", Network: "alexnet", Objective: "delay"},
		{Preset: "albireo-adc-lean", Network: "resnet18", Objective: "edp"},
		{Preset: "electrical-baseline", Network: "alexnet", Objective: "energy"},
	}
	for i := range reqs {
		reqs[i].Budget, reqs[i].Seed, reqs[i].Workers = 40, 3, 1
	}
	encode := func(req *EvalRequest, cache *mapper.Cache) ([]byte, error) {
		resp, err := Eval(req, cache)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = EncodeResponseJSON(&buf, resp)
		return buf.Bytes(), err
	}

	defer swapSeedPrints(map[seedKey][]uint64{})()
	cache := mapper.NewCache()
	const clients = 4
	got := make([][][]byte, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		got[c] = make([][]byte, len(reqs))
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 2; round++ { // cold, then warm
				for j := range reqs {
					i := (j + c) % len(reqs)
					body, err := encode(&reqs[i], cache)
					if err != nil {
						errs <- err
						return
					}
					if round == 0 {
						got[c][i] = body
					} else if !bytes.Equal(body, got[c][i]) {
						errs <- fmt.Errorf("client %d request %d: warm answer differs from cold", c, i)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i := range reqs {
		want, err := encode(&reqs[i], mapper.NewCache())
		if err != nil {
			t.Fatal(err)
		}
		for c := range got {
			if !bytes.Equal(got[c][i], want) {
				t.Fatalf("client %d request %d: concurrent answer differs from a serial one", c, i)
			}
		}
	}
}
