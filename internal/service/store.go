// Disk-backed content-addressed store for the simulation service: compiled
// images and run-result documents, keyed by core.CompileKey / core.JobKey.
// Entries are plain files (one per key) plus an index carrying LRU recency
// — a JSON snapshot (index.json) and an append-only journal of the recency
// changes since it (index.log) — so the cache survives daemon restarts and
// is shareable between anything that respects the key contract. The store
// is bounded by total bytes; inserting past the cap evicts
// least-recently-used entries.
package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind namespaces store entries by payload type.
type Kind string

const (
	// KindCompile entries hold gob-encoded codegen.Result images, keyed
	// by core.CompileKey.
	KindCompile Kind = "compile"
	// KindResult entries hold canonical core.ResultDoc JSON, keyed by
	// core.JobKey.
	KindResult Kind = "result"
)

// DefaultStoreBytes bounds a store when the caller passes maxBytes <= 0.
const DefaultStoreBytes = 1 << 30 // 1 GiB

// storeEntry is one index record.
type storeEntry struct {
	Kind Kind   `json:"kind"`
	Key  string `json:"key"`
	Size int64  `json:"size"`
	// Seq is the LRU clock: higher = more recently used. Persisted with
	// the index so recency survives restarts (Get bumps and Puts are
	// journaled lazily — after journalEvery of them, or on Close).
	Seq int64 `json:"seq"`

	// data is the in-memory copy of a KindResult payload (nil = on disk
	// only), bounded in total by maxMemBytes.
	data []byte
}

// journalEvery bounds how many index mutations — Get recency bumps and Puts
// alike — may sit unpersisted: every journalEvery of them are appended to
// index.log as one short write. The index carries only recency (OpenStore
// re-adopts any object file it does not list), so a daemon killed uncleanly
// (kill -9, OOM) loses at most this much of it, and the next eviction pass
// runs on near-current LRU order. The full index.json is rewritten only on
// Close and when the journal has grown past the index, which keeps the
// rewrite's cost amortized O(1) per mutation; rewriting it every
// journalEvery mutations instead costs milliseconds under the store lock
// once the store holds a thousand entries.
const journalEvery = 64

// maxMemBytes bounds the KindResult payloads the store keeps in memory
// once read or put, so a warm result hit does not touch the disk. Compile
// payloads are not kept: the server's BuildCache already holds their
// decoded images.
const maxMemBytes = 64 << 20

// storeIndex is the on-disk index document.
type storeIndex struct {
	V       int          `json:"v"`
	Seq     int64        `json:"seq"`
	Entries []storeEntry `json:"entries"`
}

// Store is the bounded, persistent content-addressed cache.
type Store struct {
	mu       sync.Mutex
	dir      string
	maxBytes int64
	entries  map[string]*storeEntry // indexed by kind/key
	bytes    int64
	memBytes int64 // bytes of payloads held in memory
	seq      int64
	dirty    bool         // index.json is behind the in-memory recency
	pending  []storeEntry // mutations not yet journaled
	logged   int          // records in index.log

	hits, misses, evictions int64
}

// keyRE guards against path injection: keys are hex digests.
var keyRE = regexp.MustCompile(`^[0-9a-f]{16,128}$`)

func entryID(kind Kind, key string) string { return string(kind) + "/" + key }

func (s *Store) objPath(kind Kind, key string) string {
	return filepath.Join(s.dir, "obj", string(kind)+"-"+key)
}

func (s *Store) indexPath() string { return filepath.Join(s.dir, "index.json") }

func (s *Store) logPath() string { return filepath.Join(s.dir, "index.log") }

// OpenStore opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of payload (<= 0 selects DefaultStoreBytes). An existing store
// is recovered from its index — the index.json snapshot and the index.log
// records journaled since, the higher Seq winning per entry, a torn or
// malformed journal line skipped. Entries whose files have vanished are
// dropped, and files the index does not know are re-adopted as the most
// recently used, oldest file first — such a file was written after its
// recency was last persisted — so a torn shutdown loses at worst some
// recency, never correctness, and never makes the freshest results the
// first evicted. Whatever was recovered beyond the snapshot is folded into
// a fresh index.json before OpenStore returns.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	if maxBytes <= 0 {
		maxBytes = DefaultStoreBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "obj"), 0o755); err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: maxBytes, entries: map[string]*storeEntry{}}

	var idx storeIndex
	if data, err := os.ReadFile(s.indexPath()); err == nil {
		// A corrupt index is discarded, not fatal: the object scan below
		// re-adopts the files.
		_ = json.Unmarshal(data, &idx)
	}
	recs := idx.Entries
	if data, err := os.ReadFile(s.logPath()); err == nil {
		recs = append(recs, parseJournal(data)...)
		s.dirty = true
	}
	s.seq = idx.Seq
	for _, e := range recs {
		s.seq = max(s.seq, e.Seq)
		id := entryID(e.Kind, e.Key)
		if old, ok := s.entries[id]; ok {
			old.Seq = max(old.Seq, e.Seq)
			continue
		}
		fi, err := os.Stat(s.objPath(e.Kind, e.Key))
		if err != nil {
			continue // file vanished; drop the record
		}
		e.Size = fi.Size()
		s.entries[id] = &e
		s.bytes += e.Size
	}

	// Adopt objects the index does not know (Puts since the last journal
	// write), in the order they were written; names break ties
	// deterministically.
	names, err := os.ReadDir(filepath.Join(dir, "obj"))
	if err != nil {
		return nil, fmt.Errorf("service: open store: %w", err)
	}
	var adopted []os.FileInfo
	for _, de := range names {
		kind, key, ok := parseObjName(de.Name())
		if !ok {
			continue
		}
		if _, known := s.entries[entryID(kind, key)]; known {
			continue
		}
		if fi, err := de.Info(); err == nil {
			adopted = append(adopted, fi)
		}
	}
	sort.Slice(adopted, func(i, j int) bool {
		if ti, tj := adopted[i].ModTime(), adopted[j].ModTime(); !ti.Equal(tj) {
			return ti.Before(tj)
		}
		return adopted[i].Name() < adopted[j].Name()
	})
	for _, fi := range adopted {
		kind, key, _ := parseObjName(fi.Name())
		s.seq++
		s.entries[entryID(kind, key)] = &storeEntry{
			Kind: kind, Key: key, Size: fi.Size(), Seq: s.seq}
		s.bytes += fi.Size()
		s.dirty = true
	}

	s.evictOverLocked()
	if err := s.compactLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// parseObjName splits an object file name ("kind-key") into its entry
// identity, rejecting names no entry of a known kind has.
func parseObjName(name string) (Kind, string, bool) {
	kind, key, ok := strings.Cut(name, "-")
	return Kind(kind), key, ok && knownEntry(Kind(kind), key)
}

func knownEntry(kind Kind, key string) bool {
	return (kind == KindCompile || kind == KindResult) && keyRE.MatchString(key)
}

// parseJournal decodes index.log: one "kind key seq" record per line. An
// unterminated last line (a write torn by a crash) and any malformed line
// are skipped.
func parseJournal(data []byte) []storeEntry {
	var recs []storeEntry
	for {
		line, rest, ok := bytes.Cut(data, []byte("\n"))
		if !ok {
			return recs
		}
		data = rest
		f := strings.Fields(string(line))
		if len(f) != 3 || !knownEntry(Kind(f[0]), f[1]) {
			continue
		}
		if seq, err := strconv.ParseInt(f[2], 10, 64); err == nil {
			recs = append(recs, storeEntry{Kind: Kind(f[0]), Key: f[1], Seq: seq})
		}
	}
}

// Get returns the payload for (kind, key) and whether it was present,
// bumping the entry's recency. A payload whose file cannot be read is
// treated as absent and dropped. The returned slice may be the store's
// in-memory copy of the payload: callers must not modify it.
func (s *Store) Get(kind Kind, key string) ([]byte, bool) { return s.get(kind, key, nil) }

// get is Get with an optional check of a payload read from disk: one that
// valid rejects (a torn or corrupt file) is dropped like an unreadable one.
// The check runs once per disk read; a payload held in memory is served
// without it.
func (s *Store) get(kind Kind, key string, valid func([]byte) bool) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[entryID(kind, key)]
	if !ok {
		s.misses++
		return nil, false
	}
	data := e.data
	if data == nil {
		var err error
		data, err = os.ReadFile(s.objPath(kind, key))
		if err != nil || (valid != nil && !valid(data)) {
			s.dropLocked(e)
			s.misses++
			return nil, false
		}
		s.keepLocked(e, data)
	}
	s.seq++
	e.Seq = s.seq
	s.hits++
	// Best effort: a failed journal write loses at most those records'
	// recency (Close still snapshots the whole index); the Get itself
	// succeeded.
	_ = s.mutatedLocked(e)
	return data, true
}

// keepLocked holds a KindResult payload in memory, shedding other held
// payloads (in map order) while the total is over maxMemBytes.
// Callers hold mu.
func (s *Store) keepLocked(e *storeEntry, data []byte) {
	if e.Kind != KindResult || int64(len(data)) > maxMemBytes {
		return
	}
	e.data = data
	s.memBytes += int64(len(data))
	for _, o := range s.entries {
		if s.memBytes <= maxMemBytes {
			break
		}
		if o != e && o.data != nil {
			s.memBytes -= int64(len(o.data))
			o.data = nil
		}
	}
}

// mutatedLocked records one recency change and journals the pending ones
// once journalEvery of them have piled up. Callers hold mu.
func (s *Store) mutatedLocked(e *storeEntry) error {
	s.dirty = true
	s.pending = append(s.pending, storeEntry{Kind: e.Kind, Key: e.Key, Seq: e.Seq})
	if len(s.pending) < journalEvery {
		return nil
	}
	return s.journalLocked()
}

// journalLocked appends the pending records to index.log in one write, and
// compacts once the log holds more records than the index has entries.
// The records leave pending even if the write fails: the in-memory
// recency is intact and the next compaction persists it whole. Callers
// hold mu.
func (s *Store) journalLocked() error {
	var buf []byte
	for _, r := range s.pending {
		buf = fmt.Appendf(buf, "%s %s %d\n", r.Kind, r.Key, r.Seq)
	}
	s.logged += len(s.pending)
	s.pending = s.pending[:0]
	f, err := os.OpenFile(s.logPath(), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("service: store journal: %w", err)
	}
	_, err = f.Write(buf)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("service: store journal: %w", err)
	}
	if s.logged > len(s.entries) {
		return s.compactLocked()
	}
	return nil
}

// Contains reports presence without reading the payload or bumping
// recency.
func (s *Store) Contains(kind Kind, key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.entries[entryID(kind, key)]
	return ok
}

// Put inserts (or refreshes) a payload. The object file is on disk when it
// returns; its index record is journaled lazily (journalEvery), since a
// file the index does not list yet is re-adopted by OpenStore. A
// KindResult payload stays in memory, so callers must not modify data
// afterwards. Entries larger than the whole store bound are rejected
// silently (cache, not storage). The content-addressed contract makes
// overwrites idempotent: same key, same bytes.
func (s *Store) Put(kind Kind, key string, data []byte) error {
	if !keyRE.MatchString(key) {
		return fmt.Errorf("service: store key %q is not a content hash", key)
	}
	if int64(len(data)) > s.maxBytes {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()

	path := s.objPath(kind, key)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: store put: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: store put: %w", err)
	}

	id := entryID(kind, key)
	if old, ok := s.entries[id]; ok {
		s.bytes -= old.Size
		s.memBytes -= int64(len(old.data))
	}
	s.seq++
	e := &storeEntry{Kind: kind, Key: key, Size: int64(len(data)), Seq: s.seq}
	s.entries[id] = e
	s.bytes += e.Size
	s.keepLocked(e, data)
	s.evictOverLocked()
	return s.mutatedLocked(e)
}

// dropLocked removes an entry and its file. Callers hold mu.
func (s *Store) dropLocked(e *storeEntry) {
	delete(s.entries, entryID(e.Kind, e.Key))
	s.bytes -= e.Size
	s.memBytes -= int64(len(e.data))
	os.Remove(s.objPath(e.Kind, e.Key))
	s.dirty = true
}

// evictOverLocked drops LRU entries until the byte bound holds.
func (s *Store) evictOverLocked() {
	for s.bytes > s.maxBytes && len(s.entries) > 0 {
		var lru *storeEntry
		for _, e := range s.entries {
			if lru == nil || e.Seq < lru.Seq {
				lru = e
			}
		}
		s.dropLocked(lru)
		s.evictions++
	}
}

// compactLocked rewrites index.json from memory (write-temp-then-rename)
// and removes the journal it supersedes. A crash between the two leaves
// only records the new index already covers (OpenStore keeps the higher
// Seq). Callers hold mu.
func (s *Store) compactLocked() error {
	if !s.dirty {
		return nil
	}
	idx := storeIndex{V: 1, Seq: s.seq}
	for _, e := range s.entries {
		idx.Entries = append(idx.Entries, *e)
	}
	sort.Slice(idx.Entries, func(i, j int) bool {
		return idx.Entries[i].Seq < idx.Entries[j].Seq
	})
	data, err := json.MarshalIndent(&idx, "", " ")
	if err != nil {
		return err
	}
	tmp := s.indexPath() + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("service: store flush: %w", err)
	}
	if err := os.Rename(tmp, s.indexPath()); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("service: store flush: %w", err)
	}
	if err := os.Remove(s.logPath()); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("service: store flush: %w", err)
	}
	s.dirty = false
	s.pending = s.pending[:0]
	s.logged = 0
	return nil
}

// Close persists every pending index change as a fresh index.json; the
// store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

// Len reports the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Bytes reports the resident payload bytes.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// StoreStats is the store's observable state (GET /stats).
type StoreStats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Entries: len(s.entries), Bytes: s.bytes, MaxBytes: s.maxBytes,
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions,
	}
}
