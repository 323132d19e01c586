package mapper

import (
	"errors"
	"reflect"
	"testing"

	"photoloop/internal/albireo"
	"photoloop/internal/mapping"
	"photoloop/internal/workload"
)

// keyPersister records every key the cache consults it with and counts
// the results written through.
type keyPersister struct {
	loads  []Key
	stores int
}

func (p *keyPersister) Load(k Key) (*Best, bool) {
	p.loads = append(p.loads, k)
	return nil, false
}

func (p *keyPersister) Store(Key, *Best) error {
	p.stores++
	return nil
}

// pinCase is the content-address pin's fixed search: conservative
// Albireo, one conv layer, fixed options.
func pinCase(t *testing.T) (*Session, workload.Layer, []*mapping.Mapping, Options) {
	t.Helper()
	a, err := albireo.Default(albireo.Conservative).Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(a)
	if err != nil {
		t.Fatal(err)
	}
	l := workload.NewConv("pin", 1, 64, 32, 28, 28, 3, 3, 1, 1)
	return s, l, albireo.CanonicalMappings(a, &l), Options{Objective: MinEDP, Budget: 200, Seed: 7, Workers: 2}
}

// TestKeyPinnedAcrossSeedForms pins the content address persisted stores
// are indexed by: the literal was captured when Options.Seeds was a
// mapping slice, and both SeedList and LazySeeds must still produce it,
// or every existing store would silently miss.
func TestKeyPinnedAcrossSeedForms(t *testing.T) {
	want := Key{Arch: 0x579f679e428c2256, Layer: 0x8864978faf59633e, Opts: 0x8e97296ef8b93e34}
	s, l, canonical, opts := pinCase(t)
	listed := SeedList(canonical)
	forms := map[string]Seeds{
		"SeedList": listed,
		"LazySeeds": LazySeeds(listed.Prints(), func() []*mapping.Mapping {
			return albireo.CanonicalMappings(s.Engine().Arch(), &l)
		}),
	}
	var bests []*Best
	for name, seeds := range forms {
		p := &keyPersister{}
		c := NewCache()
		c.SetPersister(p)
		o := opts
		o.Seeds, o.Cache = seeds, c
		b, err := s.Search(&l, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(p.loads) != 1 || p.loads[0] != want {
			t.Errorf("%s: keys %#v, want [%#v]", name, p.loads, want)
		}
		bests = append(bests, b)
	}
	if !reflect.DeepEqual(bests[0], bests[1]) {
		t.Error("SeedList and LazySeeds searches differ")
	}
}

// TestSeedMismatchFailsAndIsNotCached: a builder whose mappings disagree
// with the fingerprints the key was formed from fails the search, and
// the cache neither writes the failure through nor serves it to a later
// caller whose seeds do match.
func TestSeedMismatchFailsAndIsNotCached(t *testing.T) {
	s, l, canonical, opts := pinCase(t)
	prints := SeedList(canonical).Prints()
	p := &keyPersister{}
	c := NewCache()
	c.SetPersister(p)
	opts.Cache = c

	for name, build := range map[string]func() []*mapping.Mapping{
		"reordered": func() []*mapping.Mapping {
			ms := append([]*mapping.Mapping(nil), canonical...)
			ms[0], ms[1] = ms[1], ms[0]
			return ms
		},
		"short": func() []*mapping.Mapping { return canonical[1:] },
	} {
		bad := opts
		bad.Seeds = LazySeeds(prints, build)
		if b, err := s.Search(&l, bad); !errors.Is(err, errSeedMismatch) || b != nil {
			t.Fatalf("%s: got (%v, %v), want a seed mismatch error", name, b, err)
		}
	}
	if p.stores != 0 {
		t.Fatalf("a mismatched search was written through (%d stores)", p.stores)
	}

	good := opts
	good.Seeds = LazySeeds(prints, func() []*mapping.Mapping { return canonical })
	if _, err := s.Search(&l, good); err != nil {
		t.Fatalf("matching seeds after a mismatch: %v", err)
	}
	if ts := c.TierStats(); ts.Hits != 0 || ts.Misses != 3 || p.stores != 1 {
		t.Fatalf("tier stats %+v, %d stores; want the matching search computed and stored", ts, p.stores)
	}
}
