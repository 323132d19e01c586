// Package store is the durable tier of the search cache: a
// content-addressed, append-only on-disk result store keyed by the
// mapper's (architecture, layer shape, options) fingerprints. It
// implements mapper.Persister, so a mapper.Cache backed by a Store serves
// every search any prior process completed — restarts, resumed jobs and
// repeated queries start warm instead of recomputing.
//
// Layout: one store directory holds one append-only log of checksummed
// records (photoloop-store.log) and one pid-stamped advisory lock
// (photoloop-store.log.lock). The process that holds the lock is the
// store's only writer and reader: a second live Open fails naming the
// holder's pid, while a lock whose owner died is stale and reclaimed.
// Shard workers never open the directory — their results reach the
// coordinator over HTTP as framed records, which it verifies, then
// appends and serves as the bytes the worker encoded (Append, Payload).
//
// Each record frames a key (three fingerprints) and a versioned binary
// payload (EncodeBest) behind a CRC32; records are never rewritten. Open
// scans the log into an in-memory index, and a framing or checksum
// violation truncates the log at the last intact record (a torn tail from
// a crash costs the torn records only). A file whose header is not ours
// is an error, never overwritten: pointing the store at the wrong
// directory must not destroy foreign data. A directory still holding a
// numbered segment (photoloop-store.NNN.log) of the older multi-writer
// layout is refused for the same reason.
//
// Integrity over availability: a record that cannot prove itself (bad
// CRC, bad frame, bad codec version) is a miss and the search recomputes
// — corruption can cost time, never correctness.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"photoloop/internal/mapper"
)

// logName is the store's log file name inside its directory.
const logName = "photoloop-store.log"

// lockSuffix names the log's advisory lock file. The file holds the
// owning pid in text; a lock whose pid no longer runs is stale and is
// reclaimed.
const lockSuffix = ".lock"

// logMagic opens the log file; a file that exists but does not start with
// it is not ours and Open refuses to touch it.
var logMagic = []byte("PHOTOLOOPSTORE1\n")

// recordHeaderLen frames each record: 3 key fingerprints, payload length,
// CRC32 over key+payload.
const recordHeaderLen = 3*8 + 4 + 4

// scanBufLen is scan's read buffer: a reopen reads the log in chunks
// this large, a handful of reads for a job-sized log instead of one per
// 4 KiB.
const scanBufLen = 256 << 10

// maxPayloadLen bounds one record's payload — far above any real best
// (a few KB), low enough that a corrupted length cannot drive a huge
// read.
const maxPayloadLen = 64 << 20

// Store is the on-disk result store. It is safe for concurrent use and
// implements mapper.Persister.
type Store struct {
	mu     sync.Mutex
	f      *os.File
	lock   string // advisory lock path, released on Close
	closed bool
	end    int64 // offset after the last verified record: the append position
	index  map[mapper.Key]recordRef

	recovered int64 // bytes truncated from the log tail on Open
}

// recordRef locates one record's payload in the log.
type recordRef struct {
	len int32
	off int64
}

// Open opens (creating if needed) the store under dir and takes its
// advisory lock: while this handle is open, another Open of the same
// directory fails with "locked by pid N". A log left by a crash is
// verified and its corrupted tail truncated away (see Recovered); a file
// that is not a photoloop store log at all, or a leftover segment of the
// older multi-writer layout, is an error.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := refuseSegments(dir); err != nil {
		return nil, err
	}
	lock := filepath.Join(dir, logName+lockSuffix)
	if err := acquireLock(lock); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_RDWR|os.O_CREATE, 0o666)
	if err != nil {
		releaseLock(lock)
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{f: f, lock: lock, index: make(map[mapper.Key]recordRef)}
	if err := s.scan(); err != nil {
		f.Close()
		releaseLock(lock)
		return nil, err
	}
	return s, nil
}

// refuseSegments fails when dir holds a numbered segment
// (photoloop-store.NNN.log) written by the older multi-writer layout:
// opening only the primary log would silently drop those records.
func refuseSegments(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if name != logName && strings.HasPrefix(name, "photoloop-store.") && strings.HasSuffix(name, ".log") {
			return fmt.Errorf("store: %s holds %s, a segment of the older multi-writer layout (refusing to open; move it aside)", dir, name)
		}
	}
	return nil
}

// scan verifies the log from its header on, indexing every intact record.
// A framing or checksum violation truncates the file at the last intact
// record; an empty file gets the header written.
func (s *Store) scan() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() == 0 {
		if _, err := s.f.WriteAt(logMagic, 0); err != nil {
			return fmt.Errorf("store: writing log header: %w", err)
		}
		s.end = int64(len(logMagic))
		return nil
	}
	header := make([]byte, len(logMagic))
	if _, err := s.f.ReadAt(header, 0); err != nil || !bytes.Equal(header, logMagic) {
		return fmt.Errorf("store: %s is not a photoloop result store log (refusing to overwrite)", s.f.Name())
	}
	off := int64(len(logMagic))
	hdr := make([]byte, recordHeaderLen)
	var payload []byte
	br := bufio.NewReaderSize(io.NewSectionReader(s.f, off, info.Size()-off), scanBufLen)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			break // clean EOF or torn header
		}
		key, plen, crc := parseRecordHeader(hdr)
		if plen > maxPayloadLen {
			break
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if recordCRC(hdr, payload) != crc {
			break
		}
		off += recordHeaderLen + int64(plen)
		// First write wins: a key seen earlier in the log keeps its record.
		if _, dup := s.index[key]; !dup {
			s.index[key] = recordRef{off: off - int64(plen), len: int32(plen)}
		}
	}
	s.end = off
	if off < info.Size() {
		s.recovered = info.Size() - off
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("store: truncating corrupted tail: %w", err)
		}
	}
	return nil
}

// appendRecord appends one framed record to buf: the key's three
// fingerprints, the payload length, a CRC32 over those 28 bytes and the
// payload, then the payload itself. It is the only writer of a record
// header, for the log and the upload body alike.
func appendRecord(buf []byte, r Record) []byte {
	start := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, r.Key.Arch)
	buf = binary.LittleEndian.AppendUint64(buf, r.Key.Layer)
	buf = binary.LittleEndian.AppendUint64(buf, r.Key.Opts)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.Payload)))
	buf = binary.LittleEndian.AppendUint32(buf, recordCRC(buf[start:], r.Payload))
	return append(buf, r.Payload...)
}

// parseRecordHeader reads a record header written by appendRecord: the
// key, the payload length and the CRC the payload must match (see
// recordCRC). It is the only reader of a record header.
func parseRecordHeader(hdr []byte) (k mapper.Key, plen, crc uint32) {
	k = mapper.Key{
		Arch:  binary.LittleEndian.Uint64(hdr[0:]),
		Layer: binary.LittleEndian.Uint64(hdr[8:]),
		Opts:  binary.LittleEndian.Uint64(hdr[16:]),
	}
	return k, binary.LittleEndian.Uint32(hdr[24:]), binary.LittleEndian.Uint32(hdr[28:])
}

// recordCRC checksums a record: the header's key+length bytes plus the
// payload, so a frame whose length or key was torn fails like a torn
// payload.
func recordCRC(hdr, payload []byte) uint32 {
	crc := crc32.ChecksumIEEE(hdr[:recordHeaderLen-4])
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// Close closes the log and releases the directory's advisory lock.
// Closing twice is a no-op; Store and Load on a closed store fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.f.Close()
	releaseLock(s.lock)
	return err
}

// Len returns the number of distinct keys in the store.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Segments returns how many log files the store spans: always 1, since
// the store is a single log. It remains for reports that count files.
func (s *Store) Segments() int { return 1 }

// Recovered returns how many corrupted bytes Open truncated from the log
// tail (0 for a clean log).
func (s *Store) Recovered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Has reports whether the store holds the key.
func (s *Store) Has(k mapper.Key) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[k]
	return ok
}

// Digest builds a bloom KeyDigest over the store's keys — the warm-key
// summary a coordinator serves so remote workers skip searches any
// worker already solved. Digest construction is order-independent,
// so equal key sets encode byte-identically.
func (s *Store) Digest() *KeyDigest {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := NewKeyDigest(len(s.index))
	for k := range s.index {
		d.Add(k)
	}
	return d
}

// Payload returns the EncodeBest bytes stored under the key, exactly as
// they were appended, or false. The slice is the caller's own: the shard
// fetch handler writes it to a response after the lookup.
func (s *Store) Payload(k mapper.Key) ([]byte, bool) {
	ref, ok := s.ref(k)
	if !ok {
		return nil, false
	}
	payload := make([]byte, ref.len)
	if _, err := s.f.ReadAt(payload, ref.off); err != nil {
		return nil, false
	}
	return payload, true
}

// readBufs holds Load's read buffers. DecodeBest copies out everything it
// keeps, so a buffer goes back to the pool as soon as its record is
// decoded.
var readBufs = sync.Pool{New: func() any { return new([]byte) }}

// Load implements mapper.Persister: it returns the stored best for the
// key, or false. It reads the record into a pooled buffer and decodes
// from there; the returned best shares no memory with that buffer. A
// record that fails to read or decode (impossible after a clean scan
// unless a file was modified underneath us) is a miss.
func (s *Store) Load(k mapper.Key) (*mapper.Best, bool) {
	ref, ok := s.ref(k)
	if !ok {
		return nil, false
	}
	bp := readBufs.Get().(*[]byte)
	defer readBufs.Put(bp)
	buf := slices.Grow((*bp)[:0], int(ref.len))[:ref.len]
	*bp = buf
	if _, err := s.f.ReadAt(buf, ref.off); err != nil {
		return nil, false
	}
	b, err := DecodeBest(buf)
	if err != nil {
		return nil, false
	}
	return b, true
}

// ref looks up where the key's payload lies in the log.
func (s *Store) ref(k mapper.Key) (recordRef, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ref, ok := s.index[k]
	return ref, ok
}

// Store implements mapper.Persister: it appends the best under the key to
// the log (see Append).
func (s *Store) Store(k mapper.Key, b *mapper.Best) error {
	return s.Append(Record{Key: k, Payload: EncodeBest(b)})
}

// Append writes each record to the log in order, first write wins: a key
// already present (earlier in the log or in recs) is left alone. The
// store is content addressed, so equal keys mean bit-identical results
// and the first write is as good as any. Payloads are appended as given;
// callers pass EncodeBest bytes (the upload handler's are verified by
// DecodeFrames). A write error stops the append with the records before
// it already in the log.
func (s *Store) Append(recs ...Record) error {
	var rec []byte
	for _, r := range recs {
		if len(r.Payload) > maxPayloadLen {
			return fmt.Errorf("store: record payload %d bytes exceeds cap", len(r.Payload))
		}
		rec = appendRecord(slices.Grow(rec[:0], recordHeaderLen+len(r.Payload)), r)
		if err := s.append(r.Key, rec); err != nil {
			return err
		}
	}
	return nil
}

// append writes one framed record at the end of the log unless its key is
// already indexed.
func (s *Store) append(k mapper.Key, rec []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index[k]; ok {
		return nil
	}
	if _, err := s.f.WriteAt(rec, s.end); err != nil {
		return fmt.Errorf("store: appending record: %w", err)
	}
	s.index[k] = recordRef{off: s.end + recordHeaderLen, len: int32(len(rec) - recordHeaderLen)}
	s.end += int64(len(rec))
	return nil
}
