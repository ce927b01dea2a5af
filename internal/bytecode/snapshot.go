package bytecode

// ThreadSnapshot captures everything a Thread owns privately — its call
// stack (register files, out-arg buffers, program counters), stack
// pointer, pending parallel-region descriptor, operation counters, and
// error slot. The parallel execution engine snapshots each thread before
// an epoch's speculative pass so a conflicting epoch can be rolled back
// and re-run serially.
//
// The snapshot does NOT cover simulated-machine state (clocks, caches,
// TLB, memory): memsim journals that separately (see memsim scout mode).
type ThreadSnapshot struct {
	sp      int64
	parFn   int
	parArgs []int64
	hwDiv   int64
	softDiv int64
	instrs  int64
	err     error
	frames  []frame
}

// Snapshot deep-copies the thread's private state into a fresh snapshot.
func (t *Thread) Snapshot() *ThreadSnapshot { return t.SnapshotInto(nil) }

// SnapshotInto deep-copies the thread's private state into s and returns
// it, reusing the buffers s holds from an earlier snapshot that was never
// restored (a committed epoch), so steady-state snapshots allocate nothing;
// a nil s allocates. Register files, out-arg buffers, and incoming `args`
// vectors are all copied: args used to be shared (the interpreter never
// writes through them), but the frame free list recycles a popped frame's
// args buffer into later Calls, so a snapshot that shared it could see the
// buffer rewritten before Restore.
func (t *Thread) SnapshotInto(s *ThreadSnapshot) *ThreadSnapshot {
	if s == nil {
		s = &ThreadSnapshot{}
	}
	s.sp = t.SP
	s.parFn = t.ParFn
	s.parArgs = t.ParArgs
	s.hwDiv = t.HwDiv
	s.softDiv = t.SoftDiv
	s.instrs = t.Instrs
	s.err = t.Err
	if n := len(t.frames); cap(s.frames) < n {
		grown := make([]frame, n)
		copy(grown, s.frames[:cap(s.frames)]) // keep the old buffers in play
		s.frames = grown
	} else {
		s.frames = s.frames[:n]
	}
	for i := range t.frames {
		f, nf := &t.frames[i], &s.frames[i]
		nf.fn, nf.pc, nf.savedSP, nf.cfn = f.fn, f.pc, f.savedSP, f.cfn
		// The copied args buffer belongs to the snapshot, so a restored
		// frame may always recycle it at Ret (ownArgs true when present).
		nf.ownArgs = f.args != nil
		nf.args = copyInto(nf.args, f.args)
		nf.regs = copyInto(nf.regs, f.regs)
		nf.outArgs = copyInto(nf.outArgs, f.outArgs)
	}
	return s
}

// copyInto copies src over dst's storage when it fits, else into a new
// slice; nil stays nil.
func copyInto(dst, src []int64) []int64 {
	if src == nil {
		return nil
	}
	if dst == nil || cap(dst) < len(src) {
		dst = make([]int64, len(src))
	}
	dst = dst[:len(src)]
	copy(dst, src)
	return dst
}

// Restore rewinds the thread to the snapshotted state. The snapshot's
// buffers are handed to the thread (not re-copied), which leaves the
// snapshot empty: it may be restored at most once, and the next
// SnapshotInto on it allocates afresh.
func (t *Thread) Restore(s *ThreadSnapshot) {
	t.SP = s.sp
	t.ParFn = s.parFn
	t.ParArgs = s.parArgs
	t.HwDiv = s.hwDiv
	t.SoftDiv = s.softDiv
	t.Instrs = s.instrs
	t.Err = s.err
	t.frames = t.frames[:0]
	t.frames = append(t.frames, s.frames...)
	s.frames = nil
}
