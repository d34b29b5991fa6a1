package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// SegmentStore is the on-disk ResultStore: records append to NDJSON
// segment files (seg-00000001.ndjson, …) under one directory, with an
// in-memory index mapping each live key to its newest on-disk record.
//
// Durability discipline: every Put flushes its line, reopen tolerates a
// torn trailing line in the youngest segment (a crash mid-append) by
// truncating it away, and a bad line anywhere else reports corruption
// instead of guessing. The active segment rotates once it exceeds
// MaxSegmentBytes; overwritten records become dead bytes, and once they
// outweigh the live ones a compaction rewrites the live set into fresh
// segments and deletes the old files.
// Compacted copies land in strictly newer segments, so a crash at any
// point of a compaction leaves a directory that reopens correctly
// (newest record wins).
type SegmentStore struct {
	dir string
	max int64

	mu     sync.Mutex
	index  map[string]segLoc
	files  map[int]*os.File // read handles, by segment id
	ids    []int            // sorted live segment ids; last is active
	active *os.File         // append handle of the active segment
	w      *bufio.Writer
	size   int64 // active segment's byte size
	st     Stats
	closed bool
}

// segLoc locates one record: segment id, byte offset, line length.
type segLoc struct {
	seg  int
	off  int64
	n    int
	body int // body length, for Stats without a read
}

// segmentHeader is the first line of every segment file.
type segmentHeader struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
}

const (
	segmentFormat  = "ppatc-store-segment"
	segmentVersion = 1
	// DefaultMaxSegmentBytes rotates the active segment at 8 MiB —
	// small enough that compaction rewrites stay cheap, large enough
	// that a busy daemon doesn't shed files every minute.
	DefaultMaxSegmentBytes = 8 << 20
)

// OpenSegmentStore opens (or creates) the segment store rooted at dir.
// maxSegmentBytes caps one segment file (<=0 takes the default).
func OpenSegmentStore(dir string, maxSegmentBytes int64) (*SegmentStore, error) {
	if maxSegmentBytes <= 0 {
		maxSegmentBytes = DefaultMaxSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: segment dir: %w", err)
	}
	s := &SegmentStore{
		dir:   dir,
		max:   maxSegmentBytes,
		index: make(map[string]segLoc),
		files: make(map[int]*os.File),
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if err != nil {
		return nil, err
	}
	ids := make([]int, 0, len(names))
	for _, name := range names {
		var id int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.ndjson", &id); err != nil {
			return nil, fmt.Errorf("store: alien file %s in segment dir", name)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for i, id := range ids {
		if err := s.loadSegment(id, i == len(ids)-1); err != nil {
			s.closeLocked()
			return nil, err
		}
	}
	s.ids = ids
	if len(ids) == 0 {
		if err := s.newSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		if err := s.reopenActiveLocked(ids[len(ids)-1]); err != nil {
			s.closeLocked()
			return nil, err
		}
	}
	return s, nil
}

// segPath names a segment file.
func (s *SegmentStore) segPath(id int) string {
	return filepath.Join(s.dir, fmt.Sprintf("seg-%08d.ndjson", id))
}

// loadSegment indexes one existing segment. Only the youngest segment
// (last=true) may carry a torn trailing line, which is truncated away,
// so the next append starts on a clean line.
func (s *SegmentStore) loadSegment(id int, last bool) error {
	path := s.segPath(id)
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		// A crash between create and the header flush: an empty segment
		// holds nothing, so treat it as fresh (the header is rewritten
		// when it becomes active again).
		if last {
			return nil
		}
		return fmt.Errorf("store: segment %s: empty non-final segment", path)
	}
	lines := bytes.Split(data, []byte("\n"))
	var hdr segmentHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil {
		return fmt.Errorf("store: segment %s: bad header: %w", path, err)
	}
	if hdr.Format != segmentFormat || hdr.Version != segmentVersion {
		return fmt.Errorf("store: segment %s: format %q v%d, want %q v%d",
			path, hdr.Format, hdr.Version, segmentFormat, segmentVersion)
	}
	off := int64(len(lines[0]) + 1)
	validEnd := int64(len(data))
	for i, line := range lines[1:] {
		trimmed := bytes.TrimSpace(line)
		if len(trimmed) == 0 {
			off += int64(len(line) + 1)
			continue
		}
		var rec Record
		if err := json.Unmarshal(trimmed, &rec); err != nil || rec.Key == "" {
			// A torn trailing line of the youngest segment is a crash
			// mid-append: drop it. Anywhere else it is corruption.
			if last && i == len(lines)-2 {
				validEnd = int64(len(data) - len(line))
				break
			}
			if err == nil {
				err = fmt.Errorf("missing key")
			}
			return fmt.Errorf("store: segment %s: corrupt line %d: %w", path, i+2, err)
		}
		loc := segLoc{seg: id, off: off, n: len(line), body: len(rec.Body)}
		if old, ok := s.index[rec.Key]; ok {
			s.st.DeadBytes += int64(old.n)
			s.st.LiveBytes -= int64(old.body)
		}
		s.index[rec.Key] = loc
		s.st.LiveBytes += int64(len(rec.Body))
		off += int64(len(line) + 1)
	}
	if validEnd < int64(len(data)) {
		if err := os.Truncate(path, validEnd); err != nil {
			return fmt.Errorf("store: segment %s: dropping torn tail: %w", path, err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	s.files[id] = f
	return nil
}

// reopenActiveLocked opens the youngest segment for append, newline-
// terminating it first if a flush cut exactly at a record boundary.
func (s *SegmentStore) reopenActiveLocked(id int) error {
	path := s.segPath(id)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	s.active, s.w, s.size = f, bufio.NewWriter(f), info.Size()
	if s.files[id] == nil {
		// An empty recovered segment was skipped by loadSegment and has
		// no read handle yet.
		rf, err := os.Open(path)
		if err != nil {
			return err
		}
		s.files[id] = rf
	}
	if s.size == 0 {
		// Empty file recovered above: give it its header.
		return s.writeHeaderLocked()
	}
	tail := make([]byte, 1)
	if rf := s.files[id]; rf != nil {
		if _, err := rf.ReadAt(tail, s.size-1); err == nil && tail[0] != '\n' {
			if _, err := s.w.WriteString("\n"); err != nil {
				return err
			}
			s.size++
			return s.w.Flush()
		}
	}
	return nil
}

// newSegmentLocked seals the current active segment (if any) and starts
// segment id.
func (s *SegmentStore) newSegmentLocked(id int) error {
	if s.active != nil {
		if err := s.w.Flush(); err != nil {
			return err
		}
		if err := s.active.Close(); err != nil {
			return err
		}
		s.active = nil
	}
	path := s.segPath(id)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	rf, err := os.Open(path)
	if err != nil {
		f.Close()
		return err
	}
	s.active, s.w, s.size = f, bufio.NewWriter(f), 0
	s.files[id] = rf
	s.ids = append(s.ids, id)
	return s.writeHeaderLocked()
}

func (s *SegmentStore) writeHeaderLocked() error {
	hdr, err := json.Marshal(segmentHeader{Format: segmentFormat, Version: segmentVersion})
	if err != nil {
		return err
	}
	if _, err := s.w.Write(append(hdr, '\n')); err != nil {
		return err
	}
	s.size += int64(len(hdr) + 1)
	return s.w.Flush()
}

// Put appends the record to the active segment (rotating first when
// full), flushes it durable, and repoints the index. Overwritten
// records become dead bytes; when they outweigh the live ones the store
// compacts in place.
func (s *SegmentStore) Put(rec Record) error {
	if err := validate(rec); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: put on closed store")
	}
	if s.size+int64(len(line))+1 > s.max && s.size > 0 {
		if err := s.newSegmentLocked(s.ids[len(s.ids)-1] + 1); err != nil {
			return err
		}
	}
	id := s.ids[len(s.ids)-1]
	loc := segLoc{seg: id, off: s.size, n: len(line), body: len(rec.Body)}
	if _, err := s.w.Write(append(line, '\n')); err != nil {
		return err
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	s.size += int64(len(line) + 1)
	if old, ok := s.index[rec.Key]; ok {
		s.st.DeadBytes += int64(old.n)
		s.st.LiveBytes -= int64(old.body)
	}
	s.index[rec.Key] = loc
	s.st.LiveBytes += int64(len(rec.Body))
	s.st.Puts++
	if s.st.DeadBytes > s.st.LiveBytes && s.st.DeadBytes > s.max/4 {
		return s.compactLocked()
	}
	return nil
}

// Get reads the record under key from its segment.
func (s *SegmentStore) Get(key string) (Record, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.Gets++
	loc, ok := s.index[key]
	if !ok {
		return Record{}, false, nil
	}
	rec, err := s.readLocked(loc)
	if err != nil {
		return Record{}, false, err
	}
	s.st.Hits++
	return rec, true, nil
}

func (s *SegmentStore) readLocked(loc segLoc) (Record, error) {
	f := s.files[loc.seg]
	if f == nil {
		return Record{}, fmt.Errorf("store: segment %d vanished", loc.seg)
	}
	// The active segment's reads must see its latest flushed write.
	if s.active != nil && loc.seg == s.ids[len(s.ids)-1] {
		if err := s.w.Flush(); err != nil {
			return Record{}, err
		}
	}
	buf := make([]byte, loc.n)
	if _, err := f.ReadAt(buf, loc.off); err != nil {
		return Record{}, fmt.Errorf("store: segment %d read: %w", loc.seg, err)
	}
	var rec Record
	if err := json.Unmarshal(buf, &rec); err != nil {
		return Record{}, fmt.Errorf("store: segment %d offset %d: %w", loc.seg, loc.off, err)
	}
	return rec, nil
}

// Scan visits live records whose key starts with prefix, in sorted key
// order. The lock is held across the walk: scans are boot-time and
// operator paths, not hot ones.
func (s *SegmentStore) Scan(prefix string, fn func(Record) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		rec, err := s.readLocked(s.index[k])
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked rewrites the live record set into fresh segments and
// deletes the old files. New segments have strictly larger ids, so a
// crash mid-compaction reopens to a consistent (if larger) store:
// duplicate records resolve newest-wins, exactly as overwrites do.
func (s *SegmentStore) compactLocked() error {
	keys := make([]string, 0, len(s.index))
	oldLoc := make(map[string]segLoc, len(s.index))
	for k, loc := range s.index {
		keys = append(keys, k)
		oldLoc[k] = loc
	}
	sort.Strings(keys)
	oldIDs := append([]int(nil), s.ids...)
	nextID := 1
	if len(oldIDs) > 0 {
		nextID = oldIDs[len(oldIDs)-1] + 1
	}

	// Write every live record into the new segment chain. Old segments'
	// read handles stay open until the copy completes.
	s.ids = s.ids[:0]
	if err := s.newSegmentLocked(nextID); err != nil {
		return err
	}
	for _, k := range keys {
		rec, err := s.readLocked(oldLoc[k])
		if err != nil {
			return err
		}
		line, err := json.Marshal(rec)
		if err != nil {
			return err
		}
		if s.size+int64(len(line))+1 > s.max && s.size > 0 {
			if err := s.newSegmentLocked(s.ids[len(s.ids)-1] + 1); err != nil {
				return err
			}
		}
		id := s.ids[len(s.ids)-1]
		loc := segLoc{seg: id, off: s.size, n: len(line), body: len(rec.Body)}
		if _, err := s.w.Write(append(line, '\n')); err != nil {
			return err
		}
		s.size += int64(len(line) + 1)
		s.index[k] = loc
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	// Only now drop the old segments: every live record is durable in
	// the new chain.
	for _, id := range oldIDs {
		if f := s.files[id]; f != nil {
			f.Close()
			delete(s.files, id)
		}
		if err := os.Remove(s.segPath(id)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	s.st.DeadBytes = 0
	s.st.Compactions++
	return nil
}

// Stats reports the store's counters.
func (s *SegmentStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.Keys = len(s.index)
	st.Segments = len(s.ids)
	return st
}

// Close flushes and closes every file handle.
func (s *SegmentStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closeLocked()
}

func (s *SegmentStore) closeLocked() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.active != nil {
		if err := s.w.Flush(); err != nil && first == nil {
			first = err
		}
		if err := s.active.Close(); err != nil && first == nil {
			first = err
		}
		s.active = nil
	}
	for id, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, id)
	}
	return first
}
