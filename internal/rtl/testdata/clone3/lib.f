      subroutine smooth(x)
      integer n, i, j
      parameter (n = 96)
      real*8 x(n, n)
      do j = 2, n-1
        do i = 2, n-1
          x(i, j) = 0.5*x(i, j) + 0.125*(x(i-1, j) + x(i+1, j))
        end do
      end do
      call scale(x, 0.75d0)
      return
      end
