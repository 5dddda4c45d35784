package main

import "sync/atomic"

// verdict classifies one delivery.
type verdict int

const (
	deliveredOK       verdict = iota
	duplicate                 // a per-source sequence number seen before
	outOfOrder                // a per-source sequence number ahead of the next expected one
	causalityViolated         // the sender had delivered something this receiver has not
)

// checker validates the deliveries of one (node, group) stream. next[j]
// is both the next sequence number expected from source j and the
// number of source-j messages delivered here so far; the generator
// reads it (atomically, from its own goroutine) to stamp the payloads
// this node sends, which is why the cells are atomics.
type checker struct {
	next []atomic.Uint64
}

func newChecker(n int) *checker { return &checker{next: make([]atomic.Uint64, n)} }

// stamp copies the node's delivered-count vector into dst.
func (c *checker) stamp(dst []uint64) {
	for j := range c.next {
		dst[j] = c.next[j].Load()
	}
}

// observe checks one delivery: exactly once and in per-source order,
// and the receiver's delivered counts dominate the sender's stamp.
// Only the stream's receiver goroutine calls it.
func (c *checker) observe(src int, seq uint64, stamp []uint64) verdict {
	want := c.next[src].Load()
	switch {
	case seq < want:
		return duplicate
	case seq > want:
		c.next[src].Store(seq + 1) // resynchronise so one gap is one failure
		return outOfOrder
	}
	v := deliveredOK
	for j, s := range stamp {
		if c.next[j].Load() < s {
			v = causalityViolated
			break
		}
	}
	c.next[src].Store(seq + 1)
	return v
}

// tally accumulates the operations of one phase. One operation is one
// expected delivery (message × receiver).
type tally struct {
	good       atomic.Int64
	duplicates atomic.Int64
	misordered atomic.Int64
	causality  atomic.Int64
	stray      atomic.Int64 // deliveries that parse badly or belong to an earlier phase
}

func (t *tally) add(v verdict) {
	switch v {
	case deliveredOK:
		t.good.Add(1)
	case duplicate:
		t.duplicates.Add(1)
	case outOfOrder:
		t.misordered.Add(1)
	case causalityViolated:
		t.causality.Add(1)
	}
}

// arrived counts deliveries that account for an expected operation
// (everything but duplicates and strays).
func (t *tally) arrived() int64 {
	return t.good.Load() + t.misordered.Load() + t.causality.Load()
}

// failed returns how many of the expected operations did not complete
// correctly: those never delivered, delivered out of order or against
// causality, plus every surplus (duplicate or stray) delivery.
func (t *tally) failed(expected int64) int64 {
	missing := expected - t.good.Load()
	if missing < 0 {
		missing = 0
	}
	return missing + t.duplicates.Load() + t.stray.Load()
}
