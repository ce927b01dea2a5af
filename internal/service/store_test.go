package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// hexKey fabricates a distinct valid content-hash key.
func hexKey(n int) string { return fmt.Sprintf("%064x", n) }

// TestStoreRoundtrip: Put/Get/Contains across both kinds, with kind
// namespacing (one key, two kinds, two payloads).
func TestStoreRoundtrip(t *testing.T) {
	s, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	k := hexKey(1)
	if err := s.Put(KindResult, k, []byte("result-doc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindCompile, k, []byte("compiled-image")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(KindResult, k); !ok || string(got) != "result-doc" {
		t.Fatalf("Get result = %q, %v", got, ok)
	}
	if got, ok := s.Get(KindCompile, k); !ok || string(got) != "compiled-image" {
		t.Fatalf("Get compile = %q, %v", got, ok)
	}
	if _, ok := s.Get(KindResult, hexKey(2)); ok {
		t.Fatal("Get of an absent key reported present")
	}
	if !s.Contains(KindResult, k) || s.Contains(KindResult, hexKey(2)) {
		t.Fatal("Contains disagrees with Get")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
	if err := s.Put(KindResult, "not-a-hash", []byte("x")); err == nil {
		t.Fatal("Put accepted a non-hash key")
	}
}

// TestStoreLRUEviction: the byte bound evicts least-recently-used entries,
// and a Get bumps recency so the touched entry survives.
func TestStoreLRUEviction(t *testing.T) {
	// Bound fits exactly three 10-byte payloads.
	s, err := OpenStore(t.TempDir(), 30)
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte("x"), 10)
	for n := 1; n <= 3; n++ {
		if err := s.Put(KindResult, hexKey(n), pay); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest so key 2 becomes LRU.
	if _, ok := s.Get(KindResult, hexKey(1)); !ok {
		t.Fatal("key 1 missing before eviction")
	}
	if err := s.Put(KindResult, hexKey(4), pay); err != nil {
		t.Fatal(err)
	}
	if s.Contains(KindResult, hexKey(2)) {
		t.Fatal("LRU entry survived past the byte bound")
	}
	for _, n := range []int{1, 3, 4} {
		if !s.Contains(KindResult, hexKey(n)) {
			t.Fatalf("key %d evicted, want key 2 (LRU)", n)
		}
	}
	if st := s.Stats(); st.Evictions != 1 || st.Bytes != 30 {
		t.Fatalf("stats = %+v, want 1 eviction at 30 resident bytes", st)
	}
	// An entry bigger than the whole bound is rejected without evicting.
	if err := s.Put(KindResult, hexKey(5), bytes.Repeat([]byte("y"), 31)); err != nil {
		t.Fatal(err)
	}
	if s.Contains(KindResult, hexKey(5)) || s.Len() != 3 {
		t.Fatal("oversized entry was admitted")
	}
}

// TestStoreRestart: entries and their recency order survive a close/reopen
// cycle, and orphan object files (torn shutdown) are re-adopted.
func TestStoreRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 40)
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte("x"), 10)
	for n := 1; n <= 3; n++ {
		if err := s.Put(KindResult, hexKey(n), pay); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := s.Get(KindResult, hexKey(1)); !ok { // bump: 2 becomes LRU
		t.Fatal("key 1 missing")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// An object file the index never saw: must be adopted on reopen.
	orphan := filepath.Join(dir, "obj", "result-"+hexKey(9))
	if err := os.WriteFile(orphan, pay, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 40)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 4 {
		t.Fatalf("reopened Len = %d, want 4 (3 indexed + 1 adopted)", s2.Len())
	}
	if got, ok := s2.Get(KindResult, hexKey(1)); !ok || !bytes.Equal(got, pay) {
		t.Fatal("persisted payload lost across restart")
	}
	if !s2.Contains(KindResult, hexKey(9)) {
		t.Fatal("orphan object not adopted")
	}
	// Recency survived: pushing one more entry over the bound must evict
	// key 2 (LRU before the restart), not the key 1 we touched.
	if err := s2.Put(KindResult, hexKey(10), pay); err != nil {
		t.Fatal(err)
	}
	if s2.Contains(KindResult, hexKey(2)) {
		t.Fatal("pre-restart LRU entry survived eviction")
	}
	if !s2.Contains(KindResult, hexKey(1)) {
		t.Fatal("recency bump lost across restart: touched entry evicted")
	}
}

// TestStoreGetRecencyFlushWithoutClose: a Get-heavy store abandoned
// without Close (kill -9, OOM) keeps near-current LRU order — recency
// bumps are flushed after every flushEveryGets unflushed Gets, not only
// on the next Put/Close.
func TestStoreGetRecencyFlushWithoutClose(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 30) // fits exactly three 10-byte payloads
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte("x"), 10)
	for n := 1; n <= 3; n++ {
		if err := s.Put(KindResult, hexKey(n), pay); err != nil {
			t.Fatal(err)
		}
	}
	// Get-only traffic on key 1, enough to cross the flush threshold.
	for i := 0; i < flushEveryGets; i++ {
		if _, ok := s.Get(KindResult, hexKey(1)); !ok {
			t.Fatal("key 1 missing")
		}
	}

	// Abandon s WITHOUT Close and reopen: the bumps must have hit disk.
	s2, err := OpenStore(dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Put(KindResult, hexKey(4), pay); err != nil {
		t.Fatal(err)
	}
	if s2.Contains(KindResult, hexKey(2)) {
		t.Fatal("key 2 survived eviction: Get recency on key 1 never reached disk")
	}
	if !s2.Contains(KindResult, hexKey(1)) {
		t.Fatal("Get-bumped entry evicted after an unclean shutdown: recency lost")
	}
}

// TestStoreRecoversFromCorruptIndex: a trashed index degrades to an object
// rescan, never an open failure.
func TestStoreRecoversFromCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(KindCompile, hexKey(1), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(KindCompile, hexKey(1)); !ok || string(got) != "payload" {
		t.Fatal("payload lost to a corrupt index")
	}
}

// TestStoreUnflushedPutsSurviveCrash: Put leaves the index alone until
// flushEveryGets mutations have piled up, and a store abandoned before then
// (kill -9) re-adopts the unlisted objects as the most recently used — the
// results computed last are the last evicted, not the first.
func TestStoreUnflushedPutsSurviveCrash(t *testing.T) {
	dir := t.TempDir()
	pay := bytes.Repeat([]byte("x"), 10)
	s, err := OpenStore(dir, 40) // fits exactly four payloads
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= 2; n++ {
		if err := s.Put(KindResult, hexKey(n), pay); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 40)
	if err != nil {
		t.Fatal(err)
	}
	for n := 3; n <= 4; n++ {
		if err := s2.Put(KindResult, hexKey(n), pay); err != nil {
			t.Fatal(err)
		}
	}
	idx, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(idx, []byte(hexKey(3))) || !bytes.Contains(idx, []byte(hexKey(2))) {
		t.Fatalf("two Puts rewrote the index (or the flushed one is gone):\n%s", idx)
	}

	// Abandon s2 WITHOUT Close and reopen.
	s3, err := OpenStore(dir, 40)
	if err != nil {
		t.Fatal(err)
	}
	if s3.Len() != 4 {
		t.Fatalf("reopened Len = %d, want 4 (2 indexed + 2 adopted)", s3.Len())
	}
	for _, step := range []struct{ put, evicts int }{{5, 1}, {6, 2}, {7, 3}} {
		if err := s3.Put(KindResult, hexKey(step.put), pay); err != nil {
			t.Fatal(err)
		}
		if s3.Contains(KindResult, hexKey(step.evicts)) {
			t.Fatalf("Put of key %d did not evict key %d", step.put, step.evicts)
		}
		if s3.Len() != 4 {
			t.Fatalf("Put of key %d left %d entries, want 4", step.put, s3.Len())
		}
	}
	if !s3.Contains(KindResult, hexKey(4)) {
		t.Fatal("the freshest pre-crash result was evicted before older ones")
	}

	// Puts count toward the flush threshold: enough of them reach disk
	// without a Close.
	big, err := OpenStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= flushEveryGets; n++ {
		if err := big.Put(KindResult, hexKey(n), pay); err != nil {
			t.Fatal(err)
		}
	}
	idx, err = os.ReadFile(big.indexPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(idx, []byte(hexKey(flushEveryGets))) {
		t.Fatalf("%d Puts never flushed the index", flushEveryGets)
	}
}
