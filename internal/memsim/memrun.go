package memsim

import "os"

// This file implements the run-batched memory fast path: AccessRun,
// LoadRun and StoreRun simulate a constant-stride sequence of word
// accesses with exactly the cycles, stats, directory state, trap and
// observability behavior of the equivalent word-at-a-time loop
//
//	for i := 0; i < count; i++ {
//		if pre != nil {
//			AddCycles(p, pre[i])
//		}
//		LoadWord(p, addr+int64(i)*stride) // or StoreWord / Access
//	}
//
// but with one cost-model walk per L1 line instead of one per word. The
// pre slice carries the caller's per-word cycle charges (the compiled
// tier's cost-prefix flushes) so batching does not move any charge across
// an access; pre[i] lands on the clock immediately before word i, exactly
// where the classic tier's flush would.
//
// Soundness of the batch rests on two facts about the word model:
//
//  1. After any successful access, the word's L1 line is resident, so
//     every later word of the run that falls in the same L1 line is an
//     L1 hit. An L1 hit charges L1HitCyc, bumps Loads/Stores, and
//     re-touches the line's LRU way — all idempotent or additive, so k
//     hits can be charged as one bulk update plus one LRU touch.
//  2. The only clock-sensitive step of the walk is reserve(), reached
//     exclusively on an L2 miss — always a group head, never a bulk
//     word. Bulk charging therefore cannot shift any bandwidth window.
//
// Stores need one more invariant: after the head store, the line is
// exclusive (a write miss or upgrade always ends exclusive), so bulk
// store words never need the directory. The bulk path re-verifies both
// residency and exclusivity and falls back to the word loop if either
// fails, keeping identity even if the invariant were broken.

// l0Ways sizes the per-processor L0 memo table (direct-mapped on the low
// bits of the L1 line number); see proc.l0Slot.
const (
	l0Ways = 8
	l0Mask = int64(l0Ways - 1)
)

// memRunEnv reads the DSM_MEMRUN kill switch. Anything but off/0/false
// (including unset) leaves the run fast path enabled.
func memRunEnv() bool {
	switch os.Getenv("DSM_MEMRUN") {
	case "off", "0", "false":
		return false
	}
	return true
}

// SetMemRun enables or disables the run-batched fast path. Like SetL0,
// the toggle must not change any simulated cycle or counter — the run
// APIs fall back to the word loop when disabled, and the fuzz harnesses
// prove both paths identical.
func (s *System) SetMemRun(enabled bool) {
	for _, pr := range s.procs {
		pr.leanRun = enabled
	}
}

// MemRunEnabled reports whether the run fast path is active.
func (s *System) MemRunEnabled() bool {
	return len(s.procs) > 0 && s.procs[0].leanRun
}

// AccessRun simulates count accesses at addr, addr+stride, ...,
// charging pre[i] extra cycles immediately before word i (pre may be
// nil). It is bit-identical to the equivalent Access loop.
func (s *System) AccessRun(p int, addr, stride int64, count int, write bool, pre []int64) {
	s.runWalk(p, s.procs[p], addr, stride, count, write, pre)
}

// LoadRun simulates count loads and gathers the loaded words into out
// (which must hold at least count words). Bit-identical to the
// equivalent LoadWord loop.
func (s *System) LoadRun(p int, addr, stride int64, count int, pre []int64, out []uint64) {
	pr := s.procs[p]
	n := s.runWalk(p, pr, addr, stride, count, false, pre)
	// The walk never touches the backing store, so gathering after it is
	// the same data the interleaved loop would have read.
	a := addr
	if sc := pr.sc; sc != nil {
		for i := 0; i < n; i++ {
			out[i] = sc.loadMem(s, a)
			a += stride
		}
		// Words at and after an abort read as zero, as in the word loop.
		for i := n; i < count; i++ {
			out[i] = 0
		}
		return
	}
	for i := 0; i < n; i++ {
		out[i] = s.mem[a>>3]
		a += stride
	}
}

// StoreRun simulates count stores scattering vals[0:count]. Bit-identical
// to the equivalent StoreWord loop (on overlapping addresses the last
// store wins, as in the loop).
func (s *System) StoreRun(p int, addr, stride int64, count int, pre []int64, vals []uint64) {
	pr := s.procs[p]
	n := s.runWalk(p, pr, addr, stride, count, true, pre)
	a := addr
	if sc := pr.sc; sc != nil {
		// The aborting word and everything after it store nothing.
		for i := 0; i < n; i++ {
			sc.mem.store(a>>3, vals[i])
			a += stride
		}
		return
	}
	for i := 0; i < n; i++ {
		s.mem[a>>3] = vals[i]
		a += stride
	}
}

// accessWord is the word-loop reference step: the LoadWord/StoreWord L0
// guard without the data movement, falling back to the full Access walk.
func (s *System) accessWord(p int, pr *proc, addr int64, write bool) {
	l1line := addr >> pr.l1.shift
	if m := l1line & l0Mask; pr.l1.tags[pr.l0Slot[m]] == l1line &&
		(!write || pr.l1.excl[pr.l0Slot[m]]) {
		if write {
			pr.stats.Stores++
		} else {
			pr.stats.Loads++
		}
		pr.l1.lru[l1line&pr.l1.mask] = pr.l0Way[m]
		pr.clock += pr.l1Hit
		return
	}
	s.Access(p, addr, write)
}

// groupEnd returns the index of the last run word that falls in the same
// L1 line as word i at address a (stride > 0 ⇒ addresses ascend; stride
// 0 ⇒ every remaining word repeats the line).
func groupEnd(pr *proc, a, stride int64, i, count int, l1line int64) int {
	if stride == 0 {
		return count - 1
	}
	end := (l1line + 1) << pr.l1.shift
	last := i + int(((end-1)-a)/stride)
	if last > count-1 {
		last = count - 1
	}
	return last
}

// runWalk performs the simulation-state part of a run (no data movement)
// and returns the number of words completed: count, except that a scout
// that aborts on word k (or was aborted already) stops there and returns k
// — the remaining words would all be no-ops. Scouts always take the word
// loop, which keeps the scout context out of the lean loop below.
func (s *System) runWalk(p int, pr *proc, addr, stride int64, count int, write bool, pre []int64) int {
	if sc := pr.sc; sc != nil || !pr.leanRun || stride < 0 || count < 2 {
		a := addr
		for i := 0; i < count; i++ {
			if pre != nil {
				pr.clock += pre[i]
			}
			s.accessWord(p, pr, a, write)
			if sc != nil && sc.aborted {
				return i
			}
			a += stride
		}
		return max(count, 0)
	}
	i := 0
	for i < count {
		a := addr + int64(i)*stride
		if pre != nil {
			pr.clock += pre[i]
		}
		// Group head: one word-loop step, which leaves the line resident.
		s.accessWord(p, pr, a, write)
		l1line := a >> pr.l1.shift
		last := groupEnd(pr, a, stride, i, count, l1line)
		if last > i {
			// Bulk L1 hits: one lookup stands in for the per-word LRU
			// touches (all writing the same way), charges and counters
			// are added in one step.
			slot := pr.l1.lookup(l1line)
			if slot < 0 || (write && !pr.l1.excl[slot]) {
				// Unreachable after a successful head access; word-walk
				// the tail so identity holds no matter what.
				for j := i + 1; j <= last; j++ {
					if pre != nil {
						pr.clock += pre[j]
					}
					s.accessWord(p, pr, addr+int64(j)*stride, write)
				}
			} else {
				k := int64(last - i)
				bulk := k * pr.l1Hit
				if pre != nil {
					for j := i + 1; j <= last; j++ {
						bulk += pre[j]
					}
				}
				if write {
					pr.stats.Stores += k
				} else {
					pr.stats.Loads += k
				}
				pr.clock += bulk
			}
		}
		i = last + 1
	}
	return count
}
