      subroutine scale(x, f)
      integer n, i, j
      parameter (n = 96)
      real*8 x(n, n), f
      do j = 1, n
        do i = 1, n
          x(i, j) = x(i, j) * f
        end do
      end do
      return
      end

      subroutine combine(x, y)
      integer n, i, j
      parameter (n = 96)
      real*8 x(n, n), y(n, n)
      do j = 1, n
        do i = 1, n
          x(i, j) = x(i, j) + y(i, j)
        end do
      end do
      return
      end
