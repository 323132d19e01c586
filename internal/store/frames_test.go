package store

import (
	"bytes"
	"math/rand"
	"testing"

	"photoloop/internal/mapper"
)

// randomRecords builds n wire records with distinct keys.
func randomRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{Key: mapperKey(rng), Payload: EncodeBest(randomBest(rng))}
	}
	return recs
}

func TestFramesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 5} {
		recs := randomRecords(rng, n)
		body := EncodeFrames(recs)
		got, err := DecodeFrames(body)
		if err != nil {
			t.Fatalf("n=%d: DecodeFrames: %v", n, err)
		}
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d records", n, len(got))
		}
		for i := range got {
			if got[i].Key != recs[i].Key {
				t.Fatalf("record %d key changed in transit", i)
			}
			if !bytes.Equal(got[i].Payload, recs[i].Payload) {
				t.Fatalf("record %d payload not bit-identical through the frame codec", i)
			}
		}
		if again := EncodeFrames(got); !bytes.Equal(again, body) {
			t.Fatalf("n=%d: re-encode differs from original body", n)
		}
	}
}

// TestDecodeFramesAllOrNothing pins the torn-upload contract: every
// strict prefix of a valid body must be rejected whole — a truncated
// POST can never be half-accepted.
func TestDecodeFramesAllOrNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	body := EncodeFrames(randomRecords(rng, 3))
	for cut := 0; cut < len(body); cut++ {
		if _, err := DecodeFrames(body[:cut]); err == nil {
			t.Fatalf("truncation at byte %d/%d accepted", cut, len(body))
		}
	}
	if _, err := DecodeFrames(append(append([]byte{}, body...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestDecodeFramesRejectsBitFlips: the CRC (and magic/count framing)
// must catch any single corrupted byte.
func TestDecodeFramesRejectsBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	body := EncodeFrames(randomRecords(rng, 2))
	for i := range body {
		mut := append([]byte{}, body...)
		mut[i] ^= 0x41
		if _, err := DecodeFrames(mut); err == nil {
			t.Fatalf("flip at byte %d/%d accepted", i, len(body))
		}
	}
}

func TestKeyDigestMembership(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	keys := make([]mapper.Key, 500)
	d := NewKeyDigest(len(keys))
	for i := range keys {
		keys[i] = mapperKey(rng)
		d.Add(keys[i])
	}
	for i, k := range keys {
		if !d.Has(k) {
			t.Fatalf("added key %d reported absent", i)
		}
	}
	falsePos := 0
	for i := 0; i < 2000; i++ {
		if d.Has(mapperKey(rng)) {
			falsePos++
		}
	}
	// ≥16 bits/key with 6 probes gives well under 1% false positives;
	// allow 2% slack before calling the hash mixing broken.
	if falsePos > 40 {
		t.Fatalf("%d/2000 false positives — digest sizing or hashing is off", falsePos)
	}
}

func TestKeyDigestOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := make([]mapper.Key, 100)
	for i := range keys {
		keys[i] = mapperKey(rng)
	}
	a := NewKeyDigest(len(keys))
	for _, k := range keys {
		a.Add(k)
	}
	b := NewKeyDigest(len(keys))
	for i := len(keys) - 1; i >= 0; i-- {
		b.Add(keys[i])
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("digests over the same key set differ by insertion order")
	}
}

func TestKeyDigestEncodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	d := NewKeyDigest(64)
	var keys []mapper.Key
	for i := 0; i < 64; i++ {
		k := mapperKey(rng)
		keys = append(keys, k)
		d.Add(k)
	}
	enc := d.Encode()
	got, err := DecodeKeyDigest(enc)
	if err != nil {
		t.Fatalf("DecodeKeyDigest: %v", err)
	}
	for i, k := range keys {
		if !got.Has(k) {
			t.Fatalf("key %d lost in digest round trip", i)
		}
	}
	if !bytes.Equal(got.Encode(), enc) {
		t.Fatal("digest re-encode differs")
	}
	for _, bad := range [][]byte{nil, {}, enc[:len(enc)-1], append(append([]byte{}, enc...), 1), []byte("PHLDIGEST1\njunkjunkjunkjunk")} {
		if _, err := DecodeKeyDigest(bad); err == nil {
			t.Fatalf("malformed digest of %d bytes accepted", len(bad))
		}
	}
}

func TestParseKeyHex(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		k := mapperKey(rng)
		got, ok := ParseKeyHex(keyHex(k))
		if !ok || got != k {
			t.Fatalf("round trip failed for %+v: got %+v ok=%v", k, got, ok)
		}
	}
	for _, bad := range []string{"", "00", keyHex(mapper.Key{})[:47], keyHex(mapper.Key{}) + "0", "ZZ" + keyHex(mapper.Key{})[2:]} {
		if _, ok := ParseKeyHex(bad); ok {
			t.Fatalf("malformed key %q accepted", bad)
		}
	}
}

func TestStoreKeysHasDigest(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	keys := make([]mapper.Key, 20)
	for i := range keys {
		keys[i] = mapperKey(rng)
		if err := st.Store(keys[i], randomBest(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Len(); got != len(keys) {
		t.Fatalf("Len returned %d, want %d", got, len(keys))
	}
	d := st.Digest()
	for i, k := range keys {
		if !st.Has(k) {
			t.Fatalf("Has(%d) = false for stored key", i)
		}
		if !d.Has(k) {
			t.Fatalf("Digest misses stored key %d", i)
		}
	}
	if st.Has(mapperKey(rng)) {
		t.Fatal("Has reported an absent key present")
	}
}

// FuzzResultUploadFrame drives arbitrary bytes through the upload-frame
// decoder and, when accepted, through a real coordinator-side store
// append. The decoder must never panic; every accepted batch must
// re-encode byte-identical (one canonical wire form); every accepted
// payload must be canonical, EncodeBest(DecodeBest(p)) == p, since the
// store appends and serves it without re-encoding; and a key new to the
// store must be served back as exactly the uploaded bytes — malformed
// input can cost a rejected upload, never a corrupted log.
//
// Seed corpus: testdata/fuzz/FuzzResultUploadFrame (regenerated by
// TestWriteFrameFuzzCorpus with UPDATE_FUZZ_CORPUS=1) plus the inline
// seeds below.
func FuzzResultUploadFrame(f *testing.F) {
	rng := rand.New(rand.NewSource(21))
	f.Add(EncodeFrames(nil))
	f.Add(EncodeFrames(randomRecords(rng, 1)))
	f.Add(EncodeFrames(randomRecords(rng, 4)))
	f.Add([]byte{})
	f.Add(append([]byte{}, frameMagic...))
	dir := f.TempDir()
	st, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := DecodeFrames(data)
		if err != nil {
			return
		}
		if again := EncodeFrames(recs); !bytes.Equal(again, data) {
			t.Fatalf("accepted non-canonical frame batch: %d bytes in, %d re-encoded", len(data), len(again))
		}
		for _, rec := range recs {
			b, err := DecodeBest(rec.Payload)
			if err != nil {
				t.Fatalf("accepted payload does not decode: %v", err)
			}
			if !bytes.Equal(EncodeBest(b), rec.Payload) {
				t.Fatal("accepted non-canonical payload")
			}
			fresh := !st.Has(rec.Key)
			if err := st.Append(rec); err != nil {
				t.Fatalf("appending accepted record: %v", err)
			}
			p, ok := st.Payload(rec.Key)
			if !ok {
				t.Fatal("accepted record not served back")
			}
			if fresh && !bytes.Equal(p, rec.Payload) {
				t.Fatal("record mutated through the store")
			}
			if _, ok := st.Load(rec.Key); !ok {
				t.Fatal("accepted record does not load")
			}
		}
	})
}

// TestWriteFrameFuzzCorpus mirrors TestWriteFuzzCorpus for the upload
// framing: regenerates testdata/fuzz/FuzzResultUploadFrame under
// UPDATE_FUZZ_CORPUS=1, otherwise verifies the committed seeds decode.
func TestWriteFrameFuzzCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seeds := [][]byte{
		EncodeFrames(nil),
		EncodeFrames(randomRecords(rng, 1)),
		EncodeFrames(randomRecords(rng, 4)),
	}
	if !syncFuzzCorpus(t, "FuzzResultUploadFrame", seeds) {
		return
	}
	for i, s := range seeds {
		if _, err := DecodeFrames(s); err != nil {
			t.Fatalf("seed %d no longer decodes: %v", i, err)
		}
	}
}
