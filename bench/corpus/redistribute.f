c Two-phase program demonstrating c$redistribute (paper section 3.3): the
c first phase sweeps columns and wants (*, block); the second sweeps rows
c and wants (block, *). The executable directive between them remaps the
c array's pages through the scheduled redistribution collective (see
c dsmrun -redist for the serial cost model instead).
      program phases
      integer n
      parameter (n = 128)
      real*8 a(n, n)
c$distribute a(*, block)
      integer i, j, it
c$doacross nest(j, i) local(i, j) shared(a) affinity(j, i) = data(a(i, j))
      do j = 1, n
        do i = 1, n
          a(i, j) = dble(i) + dble(j)
        end do
      end do
      do it = 1, 3
c$doacross local(i, j) shared(a) affinity(j) = data(a(1, j))
      do j = 1, n
        do i = 2, n
          a(i, j) = a(i, j) + a(i-1, j) * 0.5
        end do
      end do
      end do
c$redistribute a(block, *)
      do it = 1, 3
c$doacross local(i, j) shared(a) affinity(i) = data(a(i, 1))
      do i = 1, n
        do j = 2, n
          a(i, j) = a(i, j) + a(i, j-1) * 0.5
        end do
      end do
      end do
      end
