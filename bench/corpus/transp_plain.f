      program transp
      integer n
      parameter (n = 256)
      real*8 a(n, n), b(n, n)
      integer i, j, it
      do j = 1, n
        do i = 1, n
          b(i, j) = dble(i) + dble(j)*0.5
          a(i, j) = 0.0
        end do
      end do
      call dsm_timer_start
      do it = 1, 2
c$doacross local(i, j) shared(a, b)
      do i = 1, n
        do j = 1, n
          a(j, i) = b(i, j)
        end do
      end do
      end do
      call dsm_timer_stop
      end
