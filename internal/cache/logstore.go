package cache

// The packed log, the one on-disk Store (DESIGN.md §8: why, and what it
// guarantees): one append-only file of records — uvarint(len key)
// uvarint(len data) crc32c(key+data) key data, a key's latest record
// wins — plus a key index rebuilt at open. A batch of puts is one write
// on an O_APPEND descriptor, a get one pread checked against the checksum.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"unsafe"
)

// span locates a record's payload and carries its checksum.
type span struct {
	off, len int64
	sum      uint32
}

// LogStore is the packed-log Store, safe for concurrent use.
type LogStore struct {
	mu         sync.RWMutex
	path       string
	f          *os.File
	idx        map[string]span
	size, live int64 // key+payload bytes of every record this handle knows of; of those idx serves
}

// StoreStats is a LogStore's shape; bytes count keys and payloads.
// SupersededBytes is what later records of the same key shadow: only
// two handles that put one key, or a damaged record rewritten, leave
// any, so it is bounded by the live content, not the number of runs.
type StoreStats struct {
	Records         int   `json:"records"`
	LiveBytes       int64 `json:"live_bytes"`
	SupersededBytes int64 `json:"superseded_bytes"`
}

// NewDirStore opens (creating if needed) the disk store in dir: the log
// file store.log. Older file-per-key directories are not read.
func NewDirStore(dir string) (*LogStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return OpenLogStore(filepath.Join(dir, "store.log"))
}

// OpenLogStore opens (or creates) the log at path, indexes its records
// and cuts a torn tail off.
func OpenLogStore(path string) (*LogStore, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &LogStore{path: path, f: f, idx: map[string]span{}}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, fmt.Errorf("cache: open %s: %w", path, err)
	}
	return l, nil
}

// index records key's newest span; what it supersedes stops being live.
func (l *LogStore) index(key string, sp span) {
	if old, ok := l.idx[key]; ok {
		l.live -= int64(len(key)) + old.len
	}
	l.idx[key] = sp
	l.live += int64(len(key)) + sp.len
	l.size += int64(len(key)) + sp.len
}

// scan rebuilds the index through one buffered reader, skipping payloads
// by length. The first record that does not parse or runs past the end
// of the file is a crashed append's torn tail and is truncated away:
// left there it would mis-frame every later append for the next scan.
func (l *LogStore) scan() error {
	size, err := l.f.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	br := bufio.NewReaderSize(io.NewSectionReader(l.f, 0, size), 1<<16)
	var pos int64 // end of the last whole record
	for pos < size {
		hdr, err := br.Peek(int(min(size-pos, 2*binary.MaxVarintLen64+4)))
		if err != nil {
			return err
		}
		klen, a := binary.Uvarint(hdr)
		dlen, b := binary.Uvarint(hdr[max(a, 0):])
		h := a + b + 4
		if rest := uint64(size-pos) - uint64(h); a <= 0 || b <= 0 || h > len(hdr) || klen > rest || dlen > rest-klen {
			break
		}
		sp := span{off: pos + int64(h) + int64(klen), len: int64(dlen), sum: binary.LittleEndian.Uint32(hdr[a+b:])}
		br.Discard(h)
		key := make([]byte, klen)
		_, err = io.ReadFull(br, key)
		if _, derr := br.Discard(int(dlen)); err != nil || derr != nil {
			return errors.Join(err, derr)
		}
		l.index(string(key), sp)
		pos = sp.off + sp.len
	}
	if pos < size {
		return l.f.Truncate(pos)
	}
	return nil
}

// checksum is a record's CRC-32C over key then data. The key's bytes are
// read in place: crc32 only reads them, and a copy would escape on
// every Get and Put.
func checksum(key string, data []byte) uint32 {
	return crc32.Update(crc32.Update(0, castagnoli, unsafe.Slice(unsafe.StringData(key), len(key))), castagnoli, data)
}

// appendRecord frames a record onto buf; the span is relative to buf.
func appendRecord(buf []byte, key string, data []byte) ([]byte, span) {
	sp := span{len: int64(len(data)), sum: checksum(key, data)}
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = binary.AppendUvarint(buf, uint64(len(data)))
	buf = binary.LittleEndian.AppendUint32(buf, sp.sum)
	buf = append(buf, key...)
	sp.off = int64(len(buf))
	return append(buf, data...), sp
}

// Put appends one record.
func (l *LogStore) Put(key string, data []byte) error {
	return l.PutBatch(map[string][]byte{key: data})
}

// PutBatch appends every entry as one buffer in one write.
func (l *LogStore) PutBatch(entries map[string][]byte) error {
	total := 0
	for k, data := range entries {
		total += 2*binary.MaxVarintLen64 + 4 + len(k) + len(data)
	}
	buf := make([]byte, 0, total)
	placed := make(map[string]span, len(entries))
	for k, data := range entries {
		buf, placed[k] = appendRecord(buf, k, data)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	n, err := l.f.Write(buf)
	end, serr := l.f.Seek(0, io.SeekCurrent) // just past the batch, wherever O_APPEND put it
	if err = errors.Join(err, serr); err != nil {
		if n > 0 && serr == nil {
			l.f.Truncate(end - int64(n)) // a full disk: take the partial batch back out, best effort
		}
		return fmt.Errorf("cache: append to %s: %w", l.path, err)
	}
	for k, sp := range placed {
		sp.off += end - int64(len(buf))
		l.index(k, sp)
	}
	return nil
}

// readAt preads key's record at sp into buf, which is sp.len long, and
// verifies it; the caller holds a lock.
func (l *LogStore) readAt(key string, sp span, buf []byte) bool {
	_, err := l.f.ReadAt(buf, sp.off)
	return err == nil && checksum(key, buf) == sp.sum
}

// Get returns key's latest record, or a miss if it no longer verifies.
func (l *LogStore) Get(key string) ([]byte, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	sp, ok := l.idx[key]
	if !ok {
		return nil, false
	}
	buf := make([]byte, sp.len)
	if !l.readAt(key, sp, buf) {
		return nil, false
	}
	return buf, true
}

// GetBatch looks every key up under one lock and reads the hits into
// one buffer, each record a slice of it, one pread per hit. A record
// held keeps the whole buffer alive, which is why a unit record's
// decoder (UnitDecoder) copies every string it keeps: a decoded entry
// pins none of it.
func (l *LogStore) GetBatch(keys []string) map[string][]byte {
	out := make(map[string][]byte, len(keys))
	l.mu.RLock()
	defer l.mu.RUnlock()
	var total int64
	for _, k := range keys {
		total += l.idx[k].len
	}
	slab := make([]byte, total)
	for _, k := range keys {
		sp, ok := l.idx[k]
		if !ok {
			continue
		}
		buf := slab[:sp.len:sp.len]
		slab = slab[sp.len:]
		if l.readAt(k, sp, buf) {
			out[k] = buf
		}
	}
	return out
}

// Stats snapshots the store's shape.
func (l *LogStore) Stats() *StoreStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return &StoreStats{Records: len(l.idx), LiveBytes: l.live, SupersededBytes: l.size - l.live}
}

// Close closes the log file. Optional: nothing is buffered.
func (l *LogStore) Close() error { return l.f.Close() }
