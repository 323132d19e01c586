package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"photoloop/internal/mapper"
)

// This file is the wire format of results-over-the-wire sharding: the
// frame batch a remote worker POSTs to the coordinator, and the bloom key
// digest the coordinator serves so remote workers skip already-solved
// searches. A frame batch is a count of the log's own records
// (appendRecord), so the coordinator verifies a batch whole, then appends
// and serves each record as the bytes the computing process encoded —
// byte for byte what a single-process run would have written.

// frameMagic opens every result-upload frame batch. Versioned like the
// log header: a future format bumps the digit and old coordinators
// reject it whole instead of misparsing it.
var frameMagic = []byte("PHLFRAME1\n")

// maxFrameRecords bounds one batch — far above the persister's batching
// threshold, low enough that a corrupted count cannot drive a huge
// allocation.
const maxFrameRecords = 1 << 16

// Record is one search result as the log, an upload and a fetch carry
// it: a content-address key and its EncodeBest payload. Equal keys always
// carry bit-identical payloads (the store invariant), which is what makes
// duplicate uploads harmless no-ops.
type Record struct {
	// Key is the search's content address.
	Key mapper.Key
	// Payload is the search result's EncodeBest bytes.
	Payload []byte
}

// EncodeFrames serializes a batch of records into one upload body:
// magic, record count, then each record framed as in the log.
func EncodeFrames(recs []Record) []byte {
	size := len(frameMagic) + 4
	for i := range recs {
		size += recordHeaderLen + len(recs[i].Payload)
	}
	buf := make([]byte, 0, size)
	buf = append(buf, frameMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(recs)))
	for i := range recs {
		buf = appendRecord(buf, recs[i])
	}
	return buf
}

// DecodeFrames parses an upload body. It is all-or-nothing: a bad magic,
// an over-cap count, a torn record, a CRC mismatch, a payload DecodeBest
// rejects, or trailing bytes fail the whole batch with nothing accepted —
// a truncated POST body must never append a partial batch. It never
// panics on malformed input (fuzz-tested). The returned payloads alias
// body, and every one is canonical: EncodeBest(DecodeBest(p)) is p.
func DecodeFrames(body []byte) ([]Record, error) {
	if len(body) < len(frameMagic)+4 || string(body[:len(frameMagic)]) != string(frameMagic) {
		return nil, fmt.Errorf("store: result frame batch missing magic")
	}
	off := len(frameMagic)
	count := binary.LittleEndian.Uint32(body[off:])
	off += 4
	if count > maxFrameRecords {
		return nil, fmt.Errorf("store: frame batch claims %d records (cap %d)", count, maxFrameRecords)
	}
	recs := make([]Record, 0, count)
	for i := uint32(0); i < count; i++ {
		if len(body)-off < recordHeaderLen {
			return nil, fmt.Errorf("store: frame batch truncated in record %d header", i)
		}
		hdr := body[off : off+recordHeaderLen]
		key, plen, crc := parseRecordHeader(hdr)
		if plen > maxPayloadLen || int64(plen) > int64(len(body)-off-recordHeaderLen) {
			return nil, fmt.Errorf("store: frame batch truncated in record %d payload", i)
		}
		payload := body[off+recordHeaderLen : off+recordHeaderLen+int(plen)]
		if recordCRC(hdr, payload) != crc {
			return nil, fmt.Errorf("store: frame batch record %d failed CRC", i)
		}
		if _, err := DecodeBest(payload); err != nil {
			return nil, fmt.Errorf("store: frame batch record %d payload: %w", i, err)
		}
		recs = append(recs, Record{Key: key, Payload: payload})
		off += recordHeaderLen + int(plen)
	}
	if off != len(body) {
		return nil, fmt.Errorf("store: %d trailing bytes after frame batch", len(body)-off)
	}
	return recs, nil
}

// digestMagic opens an encoded key digest.
const digestMagic = "PHLDIGEST1\n"

// digestProbes is the bloom filter's hash-probe count. With the sizing
// rule below (≥16 bits per key) six probes keep the false-positive rate
// under ~1% — and a false positive only costs one 404'd fetch before the
// worker recomputes, never a wrong answer.
const digestProbes = 6

// maxDigestBits bounds a decoded digest's bitset (64 MiB of bits covers
// tens of millions of keys — far past any real store).
const maxDigestBits = 1 << 29

// KeyDigest is a bloom filter over a store's key set: the compact
// warm-key summary a coordinator serves to remote workers. Has never
// reports a present key absent; it may rarely report an absent key
// present, which the worker resolves with a single-key fetch (404 =
// recompute). Construction is order-independent, so digests built from
// any enumeration of the same key set are byte-identical.
type KeyDigest struct {
	bits []uint64
	mask uint64 // bit-count minus one (bit count is a power of two)
}

// NewKeyDigest sizes a digest for n keys: the bit count is the next power
// of two at or above max(1024, 16n), giving ≤1/16 load before probing.
func NewKeyDigest(n int) *KeyDigest {
	want := uint64(1024)
	if n > 0 && uint64(n) > want/16 {
		want = uint64(n) * 16
	}
	mbits := uint64(1) << bits.Len64(want-1)
	if mbits > maxDigestBits {
		mbits = maxDigestBits
	}
	return &KeyDigest{bits: make([]uint64, mbits/64), mask: mbits - 1}
}

// digestHashes derives the double-hashing pair from a key's three
// fingerprints. The fingerprints are already avalanched FNV-64 values;
// mixing them with distinct rotations and forcing h2 odd makes the probe
// stride coprime with the power-of-two bit count.
func digestHashes(k mapper.Key) (h1, h2 uint64) {
	h1 = k.Arch ^ bits.RotateLeft64(k.Layer, 21) ^ bits.RotateLeft64(k.Opts, 43)
	h2 = k.Layer ^ bits.RotateLeft64(k.Opts, 17) ^ bits.RotateLeft64(k.Arch, 51)
	return h1, h2 | 1
}

// Add inserts a key.
func (d *KeyDigest) Add(k mapper.Key) {
	h1, h2 := digestHashes(k)
	for i := uint64(0); i < digestProbes; i++ {
		bit := (h1 + i*h2) & d.mask
		d.bits[bit/64] |= 1 << (bit % 64)
	}
}

// Has reports whether the key may be present (definitely-absent keys
// report false; present keys always report true).
func (d *KeyDigest) Has(k mapper.Key) bool {
	h1, h2 := digestHashes(k)
	for i := uint64(0); i < digestProbes; i++ {
		bit := (h1 + i*h2) & d.mask
		if d.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// Encode serializes the digest: magic, a reserved zero word, bit count,
// bitset words, all little-endian.
func (d *KeyDigest) Encode() []byte {
	buf := make([]byte, 0, len(digestMagic)+8+8+len(d.bits)*8)
	buf = append(buf, digestMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, 0)        // reserved
	buf = binary.LittleEndian.AppendUint64(buf, d.mask+1) // bit count
	for _, w := range d.bits {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf
}

// DecodeKeyDigest parses an encoded digest, rejecting malformed input
// (bad magic, non-power-of-two or oversized bit count, truncated or
// oversized bitset) without panicking. The reserved word is skipped
// whatever it holds, so digests from encoders that wrote a key count
// there still decode.
func DecodeKeyDigest(b []byte) (*KeyDigest, error) {
	if len(b) < len(digestMagic)+16 || string(b[:len(digestMagic)]) != digestMagic {
		return nil, fmt.Errorf("store: key digest missing magic")
	}
	off := len(digestMagic) + 8 // magic, reserved word
	mbits := binary.LittleEndian.Uint64(b[off:])
	off += 8
	if mbits == 0 || mbits&(mbits-1) != 0 || mbits > maxDigestBits || mbits%64 != 0 {
		return nil, fmt.Errorf("store: key digest bit count %d invalid", mbits)
	}
	if uint64(len(b)-off) != mbits/8 {
		return nil, fmt.Errorf("store: key digest bitset is %d bytes, want %d", len(b)-off, mbits/8)
	}
	d := &KeyDigest{bits: make([]uint64, mbits/64), mask: mbits - 1}
	for i := range d.bits {
		d.bits[i] = binary.LittleEndian.Uint64(b[off+i*8:])
	}
	return d, nil
}
