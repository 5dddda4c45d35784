// Bits is the word-packed source bitmap the engine keeps beside its
// dense per-source state (gap, unheard, uncovered, acked and alive sets),
// so the common cases probe a word instead of scanning n entries.

package vclock

import "math/bits"

// Bits is a bitmap over sources, packed 64 per word. Index i lives in
// word i>>6 at bit i&63, so ascending-bit iteration visits sources in
// ascending order. The caller sizes it with NewBits and never indexes
// past n-1. Bits is a plain slice so hot paths can range over its words
// directly and scan set bits with math/bits intrinsics.
type Bits []uint64

// NewBits returns a zeroed bitmap able to hold n sources.
func NewBits(n int) Bits { return make(Bits, (n+63)>>6) }

// Set sets bit i.
func (b Bits) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear clears bit i.
func (b Bits) Clear(i int) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Test reports whether bit i is set.
func (b Bits) Test(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Empty reports whether no bit is set.
func (b Bits) Empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of set bits.
func (b Bits) Count() int {
	c := 0
	for _, w := range b {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (b Bits) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// Fill sets bits 0..n-1 and clears the rest.
func (b Bits) Fill(n int) {
	b.Reset()
	for i := 0; i+64 <= n; i += 64 {
		b[i>>6] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		b[n>>6] = 1<<uint(r) - 1
	}
}

// CopyFrom overwrites b with src. The bitmaps must be the same size.
func (b Bits) CopyFrom(src Bits) { copy(b, src) }
