package memsim

import "testing"

// TestAllocContract holds Alloc to its contract on both paths: grown one
// Alloc at a time, and inside a reservation.
func TestAllocContract(t *testing.T) {
	for _, reserved := range []bool{false, true} {
		s := tinySys(t, 2)
		page := int64(s.Cfg.PageBytes)
		if s.Brk() != page {
			t.Fatalf("fresh heap starts at %d, want one null-guard page (%d)", s.Brk(), page)
		}
		if reserved {
			s.Reserve(1 << 20)
		}
		top := s.Brk()
		for i, req := range []struct{ n, align int64 }{
			{8, 8}, {100, 8}, {1, 0}, {24, 64}, {5000, page}, {0, 8}, {3 * page, 4 * page}, {40000, 8},
		} {
			a := s.Alloc(req.n, req.align)
			align := max(req.align, 8)
			if a%align != 0 || a < top || a-top >= align {
				t.Fatalf("reserved=%v alloc %d: (%d, %d) at brk %d returned %d", reserved, i, req.n, req.align, top, a)
			}
			if a < page {
				t.Fatalf("reserved=%v alloc %d: %d lies in the null-guard page", reserved, i, a)
			}
			if top = s.Brk(); top != a+req.n {
				t.Fatalf("reserved=%v alloc %d: brk %d, want %d", reserved, i, top, a+req.n)
			}
			// Lengths follow brk, not the reservation: the last word is
			// addressable, the one after the end is not.
			if want := (top + 7) >> 3; int64(len(s.mem)) != want {
				t.Fatalf("reserved=%v alloc %d: %d words back a %d-byte heap, want %d", reserved, i, len(s.mem), top, want)
			}
			if want := top>>s.l2Shift + 1; int64(len(s.dir)) != want {
				t.Fatalf("reserved=%v alloc %d: %d directory lines, want %d", reserved, i, len(s.dir), want)
			}
			if want := top>>s.Pages.PageShift() + 1; int64(len(s.pageMiss)) != want {
				t.Fatalf("reserved=%v alloc %d: %d page counters, want %d", reserved, i, len(s.pageMiss), want)
			}
			for off := int64(0); off < req.n; off += 8 {
				if v := s.Peek(a + off); v != 0 {
					t.Fatalf("reserved=%v alloc %d: word at +%d is %#x, want zero fill", reserved, i, off, v)
				}
			}
			// Dirty the block, so that a later Alloc handing out stale
			// memory would show.
			for off := int64(0); off < req.n; off += 8 {
				s.Poke(a+off, ^uint64(0))
			}
		}
		for line := range s.dir {
			if d := s.dir[line]; d.owner != -1 || d.mask0 != 0 || d.mask1 != 0 {
				t.Fatalf("reserved=%v: untouched directory line %d = %+v", reserved, line, d)
			}
		}
	}
}

// TestAllocGrowthKeepsState grows an un-reserved heap through several moves
// of its backing arrays and checks nothing written before survives changed.
func TestAllocGrowthKeepsState(t *testing.T) {
	s := tinySys(t, 2)
	a := s.Alloc(256, 8)
	for i := int64(0); i < 32; i++ {
		s.Poke(a+i*8, uint64(0xabc0+i))
	}
	s.StoreWord(1, a+64, 99) // processor 1 now owns the line Modified
	s.LoadWord(0, a+128)     // processor 0 shares another
	line64, line128 := (a+64)>>s.l2Shift, (a+128)>>s.l2Shift
	own, shared := s.dir[line64], s.dir[line128]
	if own.owner != 1 || !shared.has(0) {
		t.Fatalf("set-up: owner line %+v, shared line %+v", own, shared)
	}
	misses := s.PageMisses(a, a+256)
	if misses == 0 {
		t.Fatal("set-up: no page misses recorded")
	}

	moves := 0
	for i := 0; i < 200; i++ {
		before := &s.mem[0]
		b := s.Alloc(4096, 8)
		if &s.mem[0] != before {
			moves++
		}
		if s.Peek(b) != 0 || s.Peek(b+4088) != 0 {
			t.Fatalf("growth %d: new block not zero", i)
		}
		if n := (b + 4096) >> s.l2Shift; s.dir[n].owner != -1 {
			t.Fatalf("growth %d: new directory line %d has owner %d", i, n, s.dir[n].owner)
		}
	}
	// 800 KB from 256 bytes by doubling: the store moved, but an
	// amortised-constant number of times, not once per Alloc.
	if moves == 0 || moves > 16 {
		t.Fatalf("backing store moved %d times in 200 Allocs", moves)
	}
	for i := int64(0); i < 32; i++ {
		want := uint64(0xabc0 + i)
		if i == 8 {
			want = 99
		}
		if got := s.Peek(a + i*8); got != want {
			t.Fatalf("word %d = %#x after growth, want %#x", i, got, want)
		}
	}
	if s.dir[line64] != own || s.dir[line128] != shared {
		t.Fatalf("directory moved: %+v %+v, want %+v %+v", s.dir[line64], s.dir[line128], own, shared)
	}
	if got := s.PageMisses(a, a+256); got != misses {
		t.Fatalf("page misses %d after growth, want %d", got, misses)
	}
}

// TestAllocInsideReservation: once reserved, the three arrays never move,
// and a smaller Reserve changes nothing.
func TestAllocInsideReservation(t *testing.T) {
	s := tinySys(t, 2)
	s.Alloc(64, 8)
	const room = 1 << 20
	s.Reserve(room)
	mem, dir, pm := &s.mem[0], &s.dir[0], &s.pageMiss[0]
	brk := s.Brk()

	s.Reserve(brk / 2)
	s.Reserve(room)
	if s.Brk() != brk || s.reserved != room || &s.mem[0] != mem {
		t.Fatalf("Reserve within the reservation changed the heap: brk %d → %d, reserved %d", brk, s.Brk(), s.reserved)
	}

	for s.Brk()+5000 <= room {
		s.Alloc(5000-s.Brk()%7, 64)
		if &s.mem[0] != mem || &s.dir[0] != dir || &s.pageMiss[0] != pm {
			t.Fatalf("Alloc inside the reservation moved an array at brk %d", s.Brk())
		}
	}
	// The first Alloc past the reservation falls back to doubling.
	a := s.Alloc(room, 8)
	if &s.mem[0] == mem {
		t.Fatal("Alloc past the reservation did not grow the store")
	}
	s.Poke(a+room-8, 7)
	if s.Peek(a+room-8) != 7 || s.reserved < s.Brk() {
		t.Fatalf("heap past the reservation: reserved %d, brk %d", s.reserved, s.Brk())
	}
}
