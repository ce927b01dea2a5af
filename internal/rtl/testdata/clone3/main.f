      program clone3
      integer n
      parameter (n = 96)
      real*8 a(n, n), b(n, n), c(n, n)
c$distribute_reshape a(*, block)
c$distribute_reshape b(block, *)
      integer i, j
c$doacross local(i, j) shared(a, b, c) affinity(j) = data(a(1, j))
      do j = 1, n
        do i = 1, n
          a(i, j) = dble(i) + dble(j)*0.5
          b(i, j) = dble(i)*0.25 - dble(j)
          c(i, j) = 1.0
        end do
      end do
      call smooth(a)
      call smooth(b)
      call smooth(c)
      call combine(a, c)
      end
