package msglog

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"cobcast/internal/pdu"
)

func dataPDU(src pdu.EntityID, seq pdu.Seq, ack []pdu.Seq) *pdu.PDU {
	return &pdu.PDU{Kind: pdu.KindData, Src: src, SEQ: seq, ACK: ack}
}

// table1 returns the eight PDUs of Table 1 keyed by their paper names.
func table1() map[string]*pdu.PDU {
	return map[string]*pdu.PDU{
		"a": dataPDU(0, 1, []pdu.Seq{1, 1, 1}),
		"b": dataPDU(2, 1, []pdu.Seq{2, 1, 1}),
		"c": dataPDU(0, 2, []pdu.Seq{2, 1, 1}),
		"d": dataPDU(1, 1, []pdu.Seq{3, 1, 2}),
		"e": dataPDU(0, 3, []pdu.Seq{3, 2, 2}),
		"f": dataPDU(0, 4, []pdu.Seq{4, 2, 2}),
		"g": dataPDU(1, 2, []pdu.Seq{4, 2, 2}),
		"h": dataPDU(2, 2, []pdu.Seq{5, 3, 2}),
	}
}

func names(ps []*pdu.PDU, tbl map[string]*pdu.PDU) string {
	out := ""
	for _, p := range ps {
		for name, q := range tbl {
			if q == p {
				out += name
			}
		}
	}
	return out
}

// TestInsertCPIExample41 replays the CPI sequence of Example 4.1: first c
// and e extend <a], then d lands between c and e, then b between c and d,
// producing PRL = <a c b d e].
func TestInsertCPIExample41(t *testing.T) {
	tbl := table1()
	var prl Log
	for _, name := range []string{"a", "c", "e", "d", "b"} {
		prl.InsertCPI(tbl[name])
	}
	if got := names(prl.Slice(), tbl); got != "acbde" {
		t.Fatalf("PRL order = %q, want %q (Example 4.1)", got, "acbde")
	}
	if !IsCausalityPreserved(prl.Slice()) {
		t.Fatal("Example 4.1 PRL not causality-preserved")
	}
}

func TestQueueOperations(t *testing.T) {
	var l Log
	if l.Len() != 0 || l.Top() != nil || l.Dequeue() != nil {
		t.Fatal("zero-value log not empty")
	}
	tbl := table1()
	l.InsertCPI(tbl["a"])
	l.InsertCPI(tbl["c"])
	l.InsertCPI(tbl["e"])
	if got := names(l.Slice(), tbl); l.Len() != 3 || l.Top() != tbl["a"] || got != "ace" {
		t.Fatal("insert/accessors wrong")
	}
	if got := l.Dequeue(); got != tbl["a"] {
		t.Fatalf("Dequeue = %v, want a", got)
	}
	if l.Len() != 2 || l.Top() != tbl["c"] {
		t.Fatal("state after dequeue wrong")
	}
	s := l.Slice()
	s[0] = nil
	if l.Top() == nil {
		t.Fatal("Slice aliases log storage")
	}
}

func TestDequeueCompaction(t *testing.T) {
	var l Log
	const total = 500
	for i := 1; i <= total; i++ {
		l.InsertCPI(dataPDU(0, pdu.Seq(i), []pdu.Seq{pdu.Seq(i)}))
	}
	for i := 1; i <= total; i++ {
		p := l.Dequeue()
		if p == nil || p.SEQ != pdu.Seq(i) {
			t.Fatalf("Dequeue %d = %v", i, p)
		}
	}
	if l.Len() != 0 {
		t.Fatal("log not empty after draining")
	}
	// Interleaved insert/dequeue across the compaction threshold.
	for i := 1; i <= total; i++ {
		l.InsertCPI(dataPDU(1, pdu.Seq(i), []pdu.Seq{0, pdu.Seq(i)}))
		if p := l.Dequeue(); p.SEQ != pdu.Seq(i) {
			t.Fatalf("interleaved Dequeue = %v, want seq %d", p, i)
		}
	}
}

// TestQueueInsertKeepsSeqOrder feeds one source's PDUs with stragglers:
// each lands after every lower SEQ, whether the queue's head has moved
// or not, and in-order input stays a plain FIFO.
func TestQueueInsertKeepsSeqOrder(t *testing.T) {
	var q Queue
	for _, s := range []pdu.Seq{1, 2, 4, 5} {
		q.Insert(dataPDU(0, s, nil))
	}
	if got := q.Dequeue(); got.SEQ != 1 {
		t.Fatalf("Dequeue = seq %d, want 1", got.SEQ)
	}
	q.Insert(dataPDU(0, 3, nil)) // straggler behind 4 and 5
	q.Insert(dataPDU(0, 7, nil))
	q.Insert(dataPDU(0, 6, nil)) // straggler at the tail
	var got []pdu.Seq
	for _, p := range q.Slice() {
		got = append(got, p.SEQ)
	}
	if want := []pdu.Seq{2, 3, 4, 5, 6, 7}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("queue order = %v, want %v", got, want)
	}
	for want := pdu.Seq(2); want <= 7; want++ {
		if p := q.Dequeue(); p == nil || p.SEQ != want {
			t.Fatalf("Dequeue = %v, want seq %d", p, want)
		}
	}
	if q.Len() != 0 || q.Top() != nil || q.Dequeue() != nil {
		t.Fatal("queue not empty after draining")
	}
}

func TestInsertCPIIntoEmptyAndTail(t *testing.T) {
	tbl := table1()
	var l Log
	l.InsertCPI(tbl["a"]) // case (1): empty
	l.InsertCPI(tbl["c"]) // successor of a: tail
	l.InsertCPI(tbl["b"]) // concurrent with both: tail
	if got := names(l.Slice(), tbl); got != "acb" {
		t.Fatalf("order = %q, want acb", got)
	}
}

// TestInsertCPIDisplacement pins the return value: the number of queued
// PDUs the insertion bypassed — 0 for empty-log and tail appends (both
// fast paths and a full scan that finds no successor), the entry count
// behind the insertion point otherwise.
func TestInsertCPIDisplacement(t *testing.T) {
	tbl := table1()
	var prl Log
	steps := []struct {
		name string
		want int
	}{
		{"a", 0}, // empty log
		{"c", 0}, // tail: a ≺ c
		{"e", 0}, // tail: c ≺ e
		{"d", 1}, // lands between c and e: bypasses e
		{"b", 2}, // lands between c and d: bypasses d and e
	}
	for _, s := range steps {
		if got := prl.InsertCPI(tbl[s.name]); got != s.want {
			t.Errorf("InsertCPI(%s) displaced %d, want %d", s.name, got, s.want)
		}
	}
	if got := names(prl.Slice(), tbl); got != "acbde" {
		t.Fatalf("PRL order = %q, want acbde", got)
	}
}

func TestInsertCPIAfterDequeue(t *testing.T) {
	// InsertCPI must respect the logical top after dequeues shifted head.
	tbl := table1()
	var l Log
	l.InsertCPI(tbl["a"])
	l.InsertCPI(tbl["c"])
	l.Dequeue() // drop a; top is now c
	l.InsertCPI(tbl["e"])
	l.InsertCPI(tbl["d"]) // c ≺ d ≺ e
	if got := names(l.Slice(), tbl); got != "cde" {
		t.Fatalf("order = %q, want cde", got)
	}
}

func TestIsLocalOrderPreserved(t *testing.T) {
	tbl := table1()
	tests := []struct {
		name string
		seq  []string
		want bool
	}{
		{"empty", nil, true},
		{"single", []string{"a"}, true},
		{"in order", []string{"a", "b", "c", "d", "e"}, true},
		{"interleaved ok", []string{"b", "a", "d", "c", "h"}, true},
		{"source regression", []string{"c", "a"}, false},
		{"duplicate", []string{"a", "a"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var ps []*pdu.PDU
			for _, n := range tt.seq {
				ps = append(ps, tbl[n])
			}
			if got := IsLocalOrderPreserved(ps); got != tt.want {
				t.Errorf("IsLocalOrderPreserved(%v) = %v, want %v", tt.seq, got, tt.want)
			}
		})
	}
}

func TestIsCausalityPreserved(t *testing.T) {
	tbl := table1()
	tests := []struct {
		name string
		seq  []string
		want bool
	}{
		{"paper RL_k <g p q]", []string{"a", "c", "b", "d", "e"}, true},
		{"violates: d before its predecessor c", []string{"a", "d", "c"}, false},
		{"concurrent either way", []string{"b", "c"}, true},
		{"concurrent reversed", []string{"c", "b"}, true},
		{"local order violation is causal violation", []string{"c", "a"}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var ps []*pdu.PDU
			for _, n := range tt.seq {
				ps = append(ps, tbl[n])
			}
			if got := IsCausalityPreserved(ps); got != tt.want {
				t.Errorf("IsCausalityPreserved(%v) = %v, want %v", tt.seq, got, tt.want)
			}
		})
	}
}

func TestIsInformationPreserved(t *testing.T) {
	tbl := table1()
	all := []*pdu.PDU{tbl["a"], tbl["b"], tbl["c"]}
	if !IsInformationPreserved(all, all) {
		t.Error("identical sets should be information-preserved")
	}
	if IsInformationPreserved(all[:2], all) {
		t.Error("missing PDU should fail")
	}
	if !IsInformationPreserved(all, all[:2]) {
		t.Error("superset should pass")
	}
	if !IsInformationPreserved(nil, nil) {
		t.Error("empty vs empty should pass")
	}
}

// TestQuickCPIPreservesCausality inserts random causal histories in random
// arrival orders and checks the CPI invariants: the log is always a
// permutation of what was inserted and always causality-preserved.
func TestQuickCPIPreservesCausality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pdus := randomCausalHistory(rng, 3, 12)
		// Random arrival order.
		rng.Shuffle(len(pdus), func(i, j int) { pdus[i], pdus[j] = pdus[j], pdus[i] })
		var l Log
		for _, p := range pdus {
			l.InsertCPI(p)
		}
		got := l.Slice()
		if len(got) != len(pdus) {
			return false
		}
		return IsCausalityPreserved(got)
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// randomCausalHistory builds a plausible run of the protocol: n entities
// broadcast sequenced PDUs, each entity's ACK vector tracking a random
// monotone view of what it has received so far. The result is a set of
// PDUs whose SEQ/ACK fields encode a genuine causal history.
func randomCausalHistory(rng *rand.Rand, n, total int) []*pdu.PDU {
	type state struct {
		seq pdu.Seq
		req []pdu.Seq
	}
	sts := make([]state, n)
	for i := range sts {
		sts[i].seq = 1
		sts[i].req = make([]pdu.Seq, n)
		for j := range sts[i].req {
			sts[i].req[j] = 1
		}
	}
	sent := make(map[pdu.EntityID][]*pdu.PDU)
	var out []*pdu.PDU
	for len(out) < total {
		i := pdu.EntityID(rng.Intn(n))
		st := &sts[i]
		// Maybe "receive" some prefix of another entity's PDUs first.
		j := pdu.EntityID(rng.Intn(n))
		if j != i && len(sent[j]) > 0 {
			k := rng.Intn(len(sent[j]) + 1)
			for _, q := range sent[j][:k] {
				if q.SEQ >= st.req[j] {
					st.req[j] = q.SEQ + 1
					// Transitively learn what q's sender knew.
					for m, a := range q.ACK {
						if a > st.req[m] && pdu.EntityID(m) != i {
							st.req[m] = a
						}
					}
				}
			}
		}
		ack := make([]pdu.Seq, n)
		copy(ack, st.req)
		p := &pdu.PDU{Kind: pdu.KindData, Src: i, SEQ: st.seq, ACK: ack}
		st.seq++
		st.req[i] = p.SEQ + 1 // self-acceptance
		sent[i] = append(sent[i], p)
		out = append(out, p)
	}
	return out
}

func BenchmarkInsertCPI(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	hist := randomCausalHistory(rng, 4, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var l Log
		for _, p := range hist {
			l.InsertCPI(p)
		}
	}
}

func ExampleLog_InsertCPI() {
	a := dataPDU(0, 1, []pdu.Seq{1, 1, 1})
	c := dataPDU(0, 2, []pdu.Seq{2, 1, 1})
	d := dataPDU(1, 1, []pdu.Seq{3, 1, 2})
	var prl Log
	prl.InsertCPI(a)
	prl.InsertCPI(d)
	prl.InsertCPI(c) // lands between a and d: a ≺ c ≺ d
	for _, p := range prl.Slice() {
		fmt.Println(p)
	}
	// Output:
	// DATA s0#1 ack=[1 1 1]
	// DATA s0#2 ack=[2 1 1]
	// DATA s1#1 ack=[3 1 2]
}

// referenceInsertCPI is the unoptimized CPI placement rule, used to pin
// the fast-path implementation.
func referenceInsertCPI(log []*pdu.PDU, p *pdu.PDU) []*pdu.PDU {
	at := len(log)
	for i, q := range log {
		if pdu.CausallyPrecedes(p, q) {
			at = i
			break
		}
	}
	log = append(log, nil)
	copy(log[at+1:], log[at:])
	log[at] = p
	return log
}

// TestInsertCPIFastPathEquivalence interleaves random CPI insertions and
// dequeues — exercising stale successor-witness bounds and the
// empty-log reset — and checks the optimized Log places every PDU
// exactly where the reference rule does.
func TestInsertCPIFastPathEquivalence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		// Simulate n entities gossiping so ACK vectors are realistic
		// snapshots, with enough slack that concurrent PDUs occur.
		next := make([]pdu.Seq, n)
		seen := make([][]pdu.Seq, n)
		for i := range seen {
			seen[i] = make([]pdu.Seq, n)
			for j := range seen[i] {
				seen[i][j] = 1
			}
			next[i] = 1
		}
		var history []*pdu.PDU
		for step := 0; step < 150; step++ {
			src := pdu.EntityID(rng.Intn(n))
			ack := make([]pdu.Seq, n)
			copy(ack, seen[src])
			p := dataPDU(src, next[src], ack)
			p.ACK[src] = p.SEQ // own entry: accepted self through SEQ
			next[src]++
			seen[src][src] = next[src]
			// Randomly propagate knowledge to another entity, sometimes
			// skipping (models loss/delay), so concurrency is common.
			if dst := rng.Intn(n); rng.Intn(3) > 0 {
				for j := 0; j < n; j++ {
					if p.ACK[j] > seen[dst][j] {
						seen[dst][j] = p.ACK[j]
					}
				}
			}
			history = append(history, p)
		}
		// Insert in a locally shuffled order (bounded displacement keeps
		// it a plausible network reordering) so late stragglers force the
		// slow mid-log insertion path, interleaved with dequeues that
		// leave the successor-witness bounds stale.
		for i := range history {
			j := i + rng.Intn(6)
			if j >= len(history) {
				j = len(history) - 1
			}
			history[i], history[j] = history[j], history[i]
		}
		var l Log
		var ref []*pdu.PDU
		for step, p := range history {
			l.InsertCPI(p)
			ref = referenceInsertCPI(ref, p)
			if rng.Intn(4) == 0 && len(ref) > 0 {
				got := l.Dequeue()
				if got != ref[0] {
					t.Fatalf("seed %d step %d: Dequeue = (%d,%d), want (%d,%d)",
						seed, step, got.Src, got.SEQ, ref[0].Src, ref[0].SEQ)
				}
				ref = ref[1:]
			}
			got, want := l.Slice(), ref
			if len(got) != len(want) {
				t.Fatalf("seed %d step %d: len %d, want %d", seed, step, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d step %d pos %d: (%d,%d), want (%d,%d)",
						seed, step, i, got[i].Src, got[i].SEQ, want[i].Src, want[i].SEQ)
				}
			}
		}
	}
}
