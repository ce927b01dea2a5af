      program quick
      integer n
      parameter (n = 1000)
      real*8 x(n), y(n)
c$distribute_reshape x(block), y(block)
      integer i
c$doacross local(i) shared(x, y) affinity(i) = data(x(i))
      do i = 1, n
        x(i) = dble(i)
        y(i) = 0.0
      end do
c$doacross local(i) shared(x, y) affinity(i) = data(y(i))
      do i = 2, n-1
        y(i) = (x(i-1) + x(i) + x(i+1)) / 3.0
      end do
      end
