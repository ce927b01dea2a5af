package service

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
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
// bumps are persisted after every journalEvery Gets, not only on the next
// Put/Close. Three entries: the journal outgrows the index at once, so
// this is the compaction path; TestStoreJournalReplay covers the replay.
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
	for i := 0; i < journalEvery; i++ {
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
// journalEvery mutations have piled up, and a store abandoned before then
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

	// Puts count toward the journal threshold: enough of them reach disk
	// without a Close. Reverse the files' write order first, so that
	// re-adopting them by modification time (the fallback for Puts the
	// index never saw) would make key 1 the most recent: only the
	// journaled Put order makes it the LRU entry a reopen evicts.
	bigDir := t.TempDir()
	big, err := OpenStore(bigDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= journalEvery; n++ {
		if err := big.Put(KindResult, hexKey(n), pay); err != nil {
			t.Fatal(err)
		}
	}
	base := time.Now()
	for n := 1; n <= journalEvery; n++ {
		mt := base.Add(-time.Duration(n) * time.Minute)
		if err := os.Chtimes(big.objPath(KindResult, hexKey(n)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon big WITHOUT Close; reopen one payload short of room.
	big2, err := OpenStore(bigDir, int64(len(pay)*(journalEvery-1)))
	if err != nil {
		t.Fatal(err)
	}
	if big2.Contains(KindResult, hexKey(1)) || !big2.Contains(KindResult, hexKey(journalEvery)) {
		t.Fatalf("%d Puts never reached the index: reopening evicted by file time, not Put order", journalEvery)
	}
}

// openFilled opens a store over dir holding n 10-byte result payloads
// (keys 1..n, put in order) and room for exactly n.
func openFilled(t *testing.T, dir string, n int) *Store {
	t.Helper()
	s, err := OpenStore(dir, int64(10*n))
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= n; k++ {
		if err := s.Put(KindResult, hexKey(k), bytes.Repeat([]byte("x"), 10)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// evictsNext puts one more payload into a full store and reports which of
// keys 1 and 2 the eviction took (0: neither).
func evictsNext(t *testing.T, s *Store) int {
	t.Helper()
	if err := s.Put(KindResult, hexKey(1000), bytes.Repeat([]byte("x"), 10)); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		if !s.Contains(KindResult, hexKey(k)) {
			return k
		}
	}
	return 0
}

// TestStoreJournalReplay: journalEvery Gets on a store larger than that
// land in index.log, not in a rewritten index.json; a store abandoned
// after them reopens with the recency the journal recorded.
func TestStoreJournalReplay(t *testing.T) {
	dir := t.TempDir()
	const n = 2 * journalEvery
	s := openFilled(t, dir, n)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	index, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil {
		t.Fatal(err)
	}

	s, err = OpenStore(dir, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < journalEvery; i++ {
		if _, ok := s.Get(KindResult, hexKey(1)); !ok {
			t.Fatal("key 1 missing")
		}
	}
	if again, err := os.ReadFile(filepath.Join(dir, "index.json")); err != nil || !bytes.Equal(again, index) {
		t.Fatalf("%d Gets rewrote index.json (%v)", journalEvery, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.log")); err != nil {
		t.Fatalf("%d Gets wrote no journal: %v", journalEvery, err)
	}

	// Abandon s WITHOUT Close: the reopened store replays the journal.
	s2, err := OpenStore(dir, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	if got := evictsNext(t, s2); got != 2 {
		t.Fatalf("eviction after replay took key %d, want key 2: the journaled Gets on key 1 were lost", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.log")); !os.IsNotExist(err) {
		t.Fatalf("reopen did not fold the journal into index.json (stat: %v)", err)
	}
}

// TestStoreJournalTornLine: a journal whose last line was torn by a crash
// replays every complete record and skips the torn one (and any malformed
// line) instead of failing or misreading it.
func TestStoreJournalTornLine(t *testing.T) {
	for name, tail := range map[string]string{
		"torn seq":   "result " + hexKey(2) + " 99",
		"torn key":   "result " + hexKey(2)[:20],
		"garbage":    "not a record\n",
		"bad kind":   "image " + hexKey(2) + " 9999\n",
		"bad seq":    "result " + hexKey(2) + " x9\n",
		"extra word": "result " + hexKey(2) + " 9999 z\n",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := openFilled(t, dir, 3)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			log := "result " + hexKey(1) + " 500\n" + tail
			if err := os.WriteFile(filepath.Join(dir, "index.log"), []byte(log), 0o644); err != nil {
				t.Fatal(err)
			}
			s2, err := OpenStore(dir, 30)
			if err != nil {
				t.Fatal(err)
			}
			if s2.Len() != 3 {
				t.Fatalf("Len = %d, want 3", s2.Len())
			}
			if got := evictsNext(t, s2); got != 2 {
				t.Fatalf("eviction took key %d, want key 2 (key 1 bumped by the complete record only)", got)
			}
		})
	}
}

// TestStoreOpensIndexOnlyStore: a store written before the journal existed
// — index.json alone, in its indented v1 form — opens with its recency.
func TestStoreOpensIndexOnlyStore(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "obj"), 0o755); err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte("x"), 10)
	var recs []string
	for _, r := range []struct{ key, seq int }{{2, 1}, {3, 2}, {1, 3}} {
		if err := os.WriteFile(filepath.Join(dir, "obj", "result-"+hexKey(r.key)), pay, 0o644); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, fmt.Sprintf("  {\n   \"kind\": \"result\",\n   \"key\": %q,\n   \"size\": 10,\n   \"seq\": %d\n  }", hexKey(r.key), r.seq))
	}
	index := "{\n \"v\": 1,\n \"seq\": 3,\n \"entries\": [\n" + strings.Join(recs, ",\n") + "\n ]\n}"
	if err := os.WriteFile(filepath.Join(dir, "index.json"), []byte(index), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, 30)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if got := evictsNext(t, s); got != 2 {
		t.Fatalf("eviction took key %d, want key 2 (seq 1 in the index)", got)
	}
}

// TestStoreJournalCompaction: the journal is folded into index.json and
// removed at Close, and as soon as it holds more records than the index
// has entries — so neither file grows without bound under Get-only load.
func TestStoreJournalCompaction(t *testing.T) {
	logPath := func(dir string) string { return filepath.Join(dir, "index.log") }

	// Close: one journal write (journalEvery Gets over 2×journalEvery
	// entries) is compacted away, its recency kept.
	dir := t.TempDir()
	const n = 2 * journalEvery
	if err := openFilled(t, dir, n).Close(); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < journalEvery; i++ {
		s.Get(KindResult, hexKey(1))
	}
	if _, err := os.Stat(logPath(dir)); err != nil {
		t.Fatalf("no journal before Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(logPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("Close left the journal behind (stat: %v)", err)
	}
	s2, err := OpenStore(dir, 10*n)
	if err != nil {
		t.Fatal(err)
	}
	if got := evictsNext(t, s2); got != 2 {
		t.Fatalf("eviction after Close took key %d, want key 2", got)
	}

	// Outgrowing the index: with three entries, the first journal write
	// already holds more records than the index has entries.
	dir = t.TempDir()
	s = openFilled(t, dir, 3)
	for i := 0; i < journalEvery-4; i++ { // with the three Puts, one short
		s.Get(KindResult, hexKey(1))
	}
	if _, err := os.Stat(logPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("journal written before %d mutations (stat: %v)", journalEvery, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "index.json")); !os.IsNotExist(err) {
		t.Fatalf("index.json written before %d mutations (stat: %v)", journalEvery, err)
	}
	s.Get(KindResult, hexKey(1)) // the journalEvery-th mutation
	if _, err := os.Stat(logPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("journal of %d records over a 3-entry index was not compacted (stat: %v)", journalEvery, err)
	}
	idx, err := os.ReadFile(filepath.Join(dir, "index.json"))
	if err != nil || !bytes.Contains(idx, []byte(hexKey(3))) {
		t.Fatalf("compaction wrote no index listing the entries (%v):\n%s", err, idx)
	}
}

// TestStoreResultsHeldInMemory: a result payload, once put or read, is served
// from memory — deleting its file does not turn a Get into a miss — while
// compile payloads are read from disk every time.
func TestStoreResultsHeldInMemory(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := hexKey(1)
	for _, kind := range []Kind{KindResult, KindCompile} {
		if err := s.Put(kind, k, []byte(string(kind)+"-payload")); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(s.objPath(kind, k)); err != nil {
			t.Fatal(err)
		}
	}
	if got, ok := s.Get(KindResult, k); !ok || string(got) != "result-payload" {
		t.Fatalf("in-memory result Get = %q, %v", got, ok)
	}
	if _, ok := s.Get(KindCompile, k); ok {
		t.Fatal("compile payload served from memory: only results are held")
	}

	// Read from disk once, then held in memory.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objPath(KindResult, k), []byte("on-disk"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(KindResult, k); !ok || string(got) != "on-disk" {
		t.Fatalf("first Get = %q, %v", got, ok)
	}
	if err := os.Remove(s2.objPath(KindResult, k)); err != nil {
		t.Fatal(err)
	}
	if got, ok := s2.Get(KindResult, k); !ok || string(got) != "on-disk" {
		t.Fatalf("second Get = %q, %v: the payload read once was not held in memory", got, ok)
	}
}

// TestStoreConcurrentHits: concurrent Gets and Puts share in-memory
// payloads and the journal (run under -race); every Get sees the bytes
// put, and the store reopens with every entry.
func TestStoreConcurrentHits(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	payload := func(k int) []byte { return []byte(fmt.Sprintf(`{"key":%d}`, k)) }
	for k := 0; k < keys; k++ {
		if err := s.Put(KindResult, hexKey(k), payload(k)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5*journalEvery; i++ {
				k := (g + i) % keys
				if i%16 == 0 {
					if err := s.Put(KindResult, hexKey(k), payload(k)); err != nil {
						t.Error(err)
						return
					}
				}
				if got, ok := s.Get(KindResult, hexKey(k)); !ok || !bytes.Equal(got, payload(k)) {
					t.Errorf("Get key %d = %q, %v", k, got, ok)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s2, err := OpenStore(dir, 0) // abandoned without Close
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != keys {
		t.Fatalf("reopened Len = %d, want %d", s2.Len(), keys)
	}
}
