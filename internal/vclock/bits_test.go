package vclock

import (
	"math/rand"
	"testing"
)

func TestBitsBasic(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 128, 130, 256} {
		b := NewBits(n)
		if !b.Empty() || b.Count() != 0 {
			t.Fatalf("n=%d: new bitmap not empty", n)
		}
		want := map[int]bool{}
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < 3*n; i++ {
			j := rng.Intn(n)
			if rng.Intn(3) == 0 {
				b.Clear(j)
				delete(want, j)
			} else {
				b.Set(j)
				want[j] = true
			}
		}
		if b.Count() != len(want) {
			t.Fatalf("n=%d: Count=%d want %d", n, b.Count(), len(want))
		}
		for j := 0; j < n; j++ {
			if b.Test(j) != want[j] {
				t.Fatalf("n=%d: Test(%d)=%v want %v", n, j, b.Test(j), want[j])
			}
		}
		b.Reset()
		if !b.Empty() {
			t.Fatalf("n=%d: not empty after Reset", n)
		}
	}
}

func TestBitsFill(t *testing.T) {
	for _, n := range []int{1, 5, 63, 64, 65, 128, 129} {
		b := NewBits(n)
		b.Set(0) // Fill must also clear stale bits
		b.Fill(n)
		if b.Count() != n {
			t.Fatalf("Fill(%d): Count=%d", n, b.Count())
		}
		for j := 0; j < n; j++ {
			if !b.Test(j) {
				t.Fatalf("Fill(%d): bit %d clear", n, j)
			}
		}
		b.Fill(n - 1)
		if b.Count() != n-1 || b.Test(n-1) {
			t.Fatalf("Fill(%d) after Fill(%d): Count=%d Test(n-1)=%v",
				n-1, n, b.Count(), b.Test(n-1))
		}
	}
}
