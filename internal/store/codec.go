package store

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"photoloop/internal/mapper"
	"photoloop/internal/mapping"
	"photoloop/internal/model"
	"photoloop/internal/workload"
)

// codecVersion is the payload format version. Decoders reject unknown
// versions instead of guessing: a store written by a future format is a
// miss (recompute), never a wrong answer.
const codecVersion = 1

// Decoder sanity caps. A valid record is a single layer's best mapping
// and result — a few kilobytes; anything claiming more is corruption and
// must fail fast instead of allocating attacker-chosen amounts.
const (
	maxStringLen = 1 << 16
	maxSliceLen  = 1 << 20
)

// Decoder sizing guesses: the Dim slots reserved per mapping level (a
// full permutation plus a few spatial choices) and the string slab's
// first size (a record's distinct names). A record that needs more grows
// them; they never bound what decodes.
const (
	dimsPerLevel = int(workload.NumDims) + 2
	slabLen      = 512
)

// EncodeBest serializes a search result into the store's versioned binary
// payload. Every float is written as its IEEE-754 bit pattern, so a
// decoded result is bit-identical to the encoded one — the property that
// makes disk hits indistinguishable from fresh computation.
func EncodeBest(b *mapper.Best) []byte {
	e := &encoder{buf: make([]byte, 0, 1024)}
	e.byte(codecVersion)
	e.mapping(b.Mapping)
	e.result(b.Result)
	e.i64(int64(b.Evaluations))
	e.i64(int64(b.Stats.Pruned))
	e.i64(int64(b.Stats.DeltaEvals))
	e.i64(int64(b.Stats.FullEvals))
	e.i64(int64(b.Stats.Duplicates))
	e.i64(int64(b.Stats.Invalid))
	e.i64(int64(b.Stats.WarmStartEvals))
	return e.buf
}

// DecodeBest parses a payload written by EncodeBest. It never panics on
// malformed input (fuzz-tested): any framing violation, length overflow or
// trailing garbage returns an error, which the cache treats as a miss.
//
// The decoded best shares no memory with buf, so callers may reuse buf.
// It is built from a few backing stores per record rather than one
// object per field: one allocation holds the best, its mapping and its
// result; every level's Perm and SpatialChoice are cut from one Dim
// slice; Usage and Energy are filled in place; and every string is a
// piece of one per-record slab, a name repeated in the record sharing
// its first copy.
func DecodeBest(buf []byte) (*mapper.Best, error) {
	d := &decoder{buf: buf}
	if v := d.byte(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("store: unknown codec version %d (want %d)", v, codecVersion)
	}
	rec := &decoded{}
	b := &rec.best
	b.Mapping, b.Result = &rec.mapping, &rec.result
	d.mapping(b.Mapping)
	d.result(b.Result)
	b.Evaluations = int(d.i64())
	b.Stats.Pruned = int(d.i64())
	b.Stats.DeltaEvals = int(d.i64())
	b.Stats.FullEvals = int(d.i64())
	b.Stats.Duplicates = int(d.i64())
	b.Stats.Invalid = int(d.i64())
	b.Stats.WarmStartEvals = int(d.i64())
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("store: %d trailing bytes after record", len(d.buf)-d.off)
	}
	return b, nil
}

// encoder appends little-endian primitives to a growing buffer.
type encoder struct {
	buf []byte
}

func (e *encoder) byte(v byte) { e.buf = append(e.buf, v) }

func (e *encoder) u32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

func (e *encoder) u64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

func (e *encoder) i64(v int64) { e.u64(uint64(v)) }

func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) point(p workload.Point) {
	for _, v := range p {
		e.i64(int64(v))
	}
}

// dims encodes a Dim slice with nil-ness preserved (0 = nil, n+1 = length
// n), so decode(encode(m)) is deep-equal to m, not just equivalent.
func (e *encoder) dims(ds []workload.Dim) {
	if ds == nil {
		e.u32(0)
		return
	}
	e.u32(uint32(len(ds)) + 1)
	for _, d := range ds {
		e.byte(byte(d))
	}
}

func (e *encoder) mapping(m *mapping.Mapping) {
	e.u32(uint32(len(m.Levels)))
	for i := range m.Levels {
		lm := &m.Levels[i]
		e.point(lm.Temporal)
		e.dims(lm.Perm)
		e.dims(lm.SpatialChoice)
		e.point(lm.FreeSpatial)
	}
}

func (e *encoder) result(r *model.Result) {
	e.str(r.Layer)
	e.i64(r.MACs)
	e.i64(r.PaddedMACs)
	e.i64(r.ComputeCycles)
	e.f64(r.Cycles)
	e.str(r.BottleneckLevel)
	e.f64(r.Utilization)
	e.f64(r.MACsPerCycle)
	e.u32(uint32(len(r.Usage)))
	for i := range r.Usage {
		u := &r.Usage[i]
		e.str(u.Level)
		e.i64(int64(u.LevelIndex))
		e.byte(byte(u.Tensor))
		e.i64(u.TileElems)
		e.i64(u.Instances)
		e.f64(u.Fills)
		e.f64(u.FillsDistinct)
		e.f64(u.Reads)
		e.f64(u.Writes)
		e.f64(u.Updates)
		e.f64(u.Arrivals)
		e.f64(u.Drains)
		e.f64(u.DrainsMerged)
	}
	e.u32(uint32(len(r.Energy)))
	for i := range r.Energy {
		en := &r.Energy[i]
		e.str(en.Level)
		e.str(en.Component)
		e.str(en.Class)
		e.str(en.Action)
		e.str(en.Tensor)
		e.f64(en.Count)
		e.f64(en.TotalPJ)
	}
	e.f64(r.TotalPJ)
	e.f64(r.AreaUM2)
}

// decoded is one record's fixed-size part, allocated as a unit.
type decoded struct {
	best    mapper.Best
	mapping mapping.Mapping
	result  model.Result
}

// decoder reads little-endian primitives with sticky error handling:
// after the first framing violation every further read returns zero
// values and the error survives to the caller.
type decoder struct {
	buf []byte
	off int
	err error

	// dimBuf backs every level's Perm and SpatialChoice.
	dimBuf []workload.Dim
	// slab holds the record's strings. The first nseen of them are in
	// seen, found by hash through names (slot value = index in seen + 1),
	// so a name repeated in the record is stored once; names past
	// len(seen) are copied without lookup.
	slab  strings.Builder
	seen  [64]string
	nseen int
	names [128]uint8
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("store: "+format, args...)
	}
}

func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf)-d.off < n {
		d.short(n)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// short records a read past the end of the record.
func (d *decoder) short(n int) {
	d.fail("record truncated at offset %d (need %d bytes)", d.off, n)
}

func (d *decoder) byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// u64 reads the record's most common field in place rather than through
// take, which is most of a decode's per-field cost.
func (d *decoder) u64() uint64 {
	if len(d.buf)-d.off < 8 || d.err != nil {
		d.short(8)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

// str returns the next string as a piece of the record's slab, reusing
// an earlier copy of the same bytes.
func (d *decoder) str() string {
	n := d.u32()
	if n > maxStringLen {
		d.fail("string length %d exceeds cap %d", n, maxStringLen)
		return ""
	}
	b := d.take(int(n))
	if len(b) == 0 {
		return ""
	}
	// The hash reads the length and three bytes: names differ there far
	// more often than not, and a collision costs one comparison.
	h := uint32(len(b))<<24 ^ uint32(b[0])<<16 ^ uint32(b[len(b)/2])<<8 ^ uint32(b[len(b)-1])
	mask := uint32(len(d.names) - 1)
	slot := h * 0x9E3779B1 >> 25 & mask // the top 7 bits index names
	for ; d.names[slot] != 0; slot = (slot + 1) & mask {
		if s := d.seen[d.names[slot]-1]; s == string(b) {
			return s
		}
	}
	if d.slab.Cap() == 0 {
		d.slab.Grow(slabLen)
	}
	start := d.slab.Len()
	d.slab.Write(b)
	s := d.slab.String()[start:]
	if d.nseen < len(d.seen) {
		d.seen[d.nseen] = s
		d.nseen++
		d.names[slot] = uint8(d.nseen)
	}
	return s
}

// sliceLen validates an element count against both the cap and the bytes
// actually remaining (elemSize is a lower bound per element), so a
// corrupted length can never drive a huge allocation.
func (d *decoder) sliceLen(n uint32, elemSize int) int {
	if d.err != nil {
		return 0
	}
	if n > maxSliceLen || int(n)*elemSize > len(d.buf)-d.off {
		d.fail("slice length %d impossible with %d bytes left", n, len(d.buf)-d.off)
		return 0
	}
	return int(n)
}

func (d *decoder) point() workload.Point {
	var p workload.Point
	for i := range p {
		p[i] = int(d.i64())
	}
	return p
}

// dims returns the next Dim slice, cut from d.dimBuf with a full-slice
// expression so no later append can reach it. nil decodes to nil and
// empty to empty (d.dimBuf is never nil while a mapping decodes).
func (d *decoder) dims() []workload.Dim {
	n := d.u32()
	if n == 0 {
		return nil
	}
	start := len(d.dimBuf)
	for _, v := range d.take(d.sliceLen(n-1, 1)) {
		d.dimBuf = append(d.dimBuf, workload.Dim(v))
	}
	end := len(d.dimBuf)
	return d.dimBuf[start:end:end]
}

func (d *decoder) mapping(m *mapping.Mapping) {
	count := d.sliceLen(d.u32(), 2*8*int(workload.NumDims))
	m.Levels = make([]mapping.LevelMapping, count)
	d.dimBuf = make([]workload.Dim, 0, count*dimsPerLevel)
	for i := range m.Levels {
		lm := &m.Levels[i]
		lm.Temporal = d.point()
		lm.Perm = d.dims()
		lm.SpatialChoice = d.dims()
		lm.FreeSpatial = d.point()
	}
}

func (d *decoder) result(r *model.Result) {
	r.Layer = d.str()
	r.MACs = d.i64()
	r.PaddedMACs = d.i64()
	r.ComputeCycles = d.i64()
	r.Cycles = d.f64()
	r.BottleneckLevel = d.str()
	r.Utilization = d.f64()
	r.MACsPerCycle = d.f64()
	if n := d.sliceLen(d.u32(), 4+1+2*8+8*8); n > 0 {
		r.Usage = make([]model.Usage, n)
		for i := range r.Usage {
			u := &r.Usage[i]
			u.Level = d.str()
			u.LevelIndex = int(d.i64())
			u.Tensor = workload.Tensor(d.byte())
			u.TileElems = d.i64()
			u.Instances = d.i64()
			u.Fills = d.f64()
			u.FillsDistinct = d.f64()
			u.Reads = d.f64()
			u.Writes = d.f64()
			u.Updates = d.f64()
			u.Arrivals = d.f64()
			u.Drains = d.f64()
			u.DrainsMerged = d.f64()
		}
	}
	if n := d.sliceLen(d.u32(), 5*4+2*8); n > 0 {
		r.Energy = make([]model.EnergyItem, n)
		for i := range r.Energy {
			en := &r.Energy[i]
			en.Level = d.str()
			en.Component = d.str()
			en.Class = d.str()
			en.Action = d.str()
			en.Tensor = d.str()
			en.Count = d.f64()
			en.TotalPJ = d.f64()
		}
	}
	r.TotalPJ = d.f64()
	r.AreaUM2 = d.f64()
}
