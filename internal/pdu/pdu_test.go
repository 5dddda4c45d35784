package pdu

import (
	"errors"
	"strings"
	"testing"
)

func seqPDU(src EntityID, seq Seq, ack []Seq) *PDU {
	return &PDU{Kind: KindData, Src: src, SEQ: seq, ACK: ack}
}

// TestCompareTable1 checks Theorem 4.1 against every pair from Table 1 of
// the paper (the Example 4.1 exchange in a three-entity cluster).
func TestCompareTable1(t *testing.T) {
	// PDU -> (src, seq, ack) exactly as printed in Table 1.
	var (
		a = seqPDU(0, 1, []Seq{1, 1, 1})
		b = seqPDU(2, 1, []Seq{2, 1, 1})
		c = seqPDU(0, 2, []Seq{2, 1, 1})
		d = seqPDU(1, 1, []Seq{3, 1, 2})
		e = seqPDU(0, 3, []Seq{3, 2, 2})
		f = seqPDU(0, 4, []Seq{4, 2, 2})
		g = seqPDU(1, 2, []Seq{4, 2, 2})
		h = seqPDU(2, 2, []Seq{5, 3, 2})
	)
	tests := []struct {
		name string
		p, q *PDU
		want Relation
	}{
		{"a before c (same source)", a, c, Precedes},
		{"c before e (same source)", c, e, Precedes},
		{"a before d (d acked c)", a, d, Precedes},
		{"c before d", c, d, Precedes},
		{"d before e (e acked d)", d, e, Precedes},
		{"b concurrent with c (Example 4.1: b ∥ c)", b, c, Concurrent},
		{"b before d (d acked b)", b, d, Precedes},
		{"a before h", a, h, Precedes},
		{"g before h (h acked g)", g, h, Precedes},
		{"e follows d", e, d, Follows},
		{"f concurrent g", f, g, Concurrent},
		{"e before f (same source)", e, f, Precedes},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Compare(tt.p, tt.q); got != tt.want {
				t.Errorf("Compare(%v, %v) = %v, want %v", tt.p, tt.q, got, tt.want)
			}
		})
	}
}

// TestCompareAntisymmetric verifies p ≺ q implies q ≻ p over the Table 1
// PDUs.
func TestCompareAntisymmetric(t *testing.T) {
	pdus := []*PDU{
		seqPDU(0, 1, []Seq{1, 1, 1}),
		seqPDU(2, 1, []Seq{2, 1, 1}),
		seqPDU(0, 2, []Seq{2, 1, 1}),
		seqPDU(1, 1, []Seq{3, 1, 2}),
		seqPDU(0, 3, []Seq{3, 2, 2}),
		seqPDU(0, 4, []Seq{4, 2, 2}),
		seqPDU(1, 2, []Seq{4, 2, 2}),
		seqPDU(2, 2, []Seq{5, 3, 2}),
	}
	for _, p := range pdus {
		for _, q := range pdus {
			if p == q {
				continue
			}
			pq, qp := Compare(p, q), Compare(q, p)
			switch pq {
			case Precedes:
				if qp != Follows {
					t.Errorf("%v ≺ %v but reverse is %v", p, q, qp)
				}
			case Follows:
				if qp != Precedes {
					t.Errorf("%v ≻ %v but reverse is %v", p, q, qp)
				}
			case Concurrent:
				if qp != Concurrent {
					t.Errorf("%v ∥ %v but reverse is %v", p, q, qp)
				}
			}
		}
	}
}

func TestCompareUnsequencedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compare on ACKONLY did not panic")
		}
	}()
	ack := &PDU{Kind: KindAckOnly, Src: 0, ACK: []Seq{1, 1}}
	dat := seqPDU(1, 1, []Seq{1, 1})
	Compare(ack, dat)
}

func TestValidate(t *testing.T) {
	const n = 3
	valid := func() *PDU {
		return &PDU{Kind: KindData, Src: 1, SEQ: 5, ACK: []Seq{1, 5, 3}, Data: []byte("x")}
	}
	tests := []struct {
		name    string
		mutate  func(*PDU)
		wantErr error
	}{
		{"valid data", func(p *PDU) {}, nil},
		{"valid sync", func(p *PDU) { p.Kind = KindSync; p.Data = nil }, nil},
		{"valid ackonly", func(p *PDU) { p.Kind = KindAckOnly; p.SEQ = 0 }, nil},
		{"valid ret", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 2; p.LSeq = 9 }, nil},
		{"zero kind", func(p *PDU) { p.Kind = 0 }, ErrBadKind},
		{"unknown kind", func(p *PDU) { p.Kind = 99 }, ErrBadKind},
		{"negative src", func(p *PDU) { p.Src = -1 }, ErrBadSrc},
		{"src too large", func(p *PDU) { p.Src = n }, ErrBadSrc},
		{"data without seq", func(p *PDU) { p.SEQ = 0 }, ErrBadSeq},
		{"ackonly with seq", func(p *PDU) { p.Kind = KindAckOnly }, ErrBadSeq},
		{"short ack", func(p *PDU) { p.ACK = p.ACK[:2] }, ErrBadACKLen},
		{"long ack", func(p *PDU) { p.ACK = append(p.ACK, 4) }, ErrBadACKLen},
		{"own ack entry below seq", func(p *PDU) { p.ACK[1] = 4 }, ErrBadOwnACK},
		{"sync own ack entry past seq", func(p *PDU) { p.Kind = KindSync; p.Data = nil; p.ACK[1] = 6 }, ErrBadOwnACK},
		{"ret bad lsrc", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 7; p.LSeq = 1 }, ErrBadRet},
		{"ret zero lseq", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 0; p.LSeq = 0 }, ErrBadRet},
		// The held list ("x", one byte) covers (ACK[LSrc], LSeq) = (3, LSeq).
		{"ret held list on one hole", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 2; p.LSeq = 4 }, ErrBadRet},
		{"ret held list below range", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 2; p.LSeq = 2 }, ErrBadRet},
		{"ret held list at top seq", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 2; p.ACK[2] = ^Seq(0); p.LSeq = 1 }, ErrBadRet},
		{"ret held list too long", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 2; p.LSeq = 12; p.Data = []byte("xy") }, ErrBadRet},
		{"ret held list two bytes", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 2; p.LSeq = 13; p.Data = []byte("xy") }, nil},
		{"ret empty list on one hole", func(p *PDU) { p.Kind = KindRet; p.SEQ = 0; p.LSrc = 2; p.LSeq = 4; p.Data = nil }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := valid()
			tt.mutate(p)
			err := p.Validate(n)
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate() = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := &PDU{
		Kind: KindData, CID: 7, Src: 1, SEQ: 3,
		ACK: []Seq{1, 2, 3}, BUF: 10, Data: []byte("hello"),
	}
	q := p.Clone()
	q.ACK[0] = 99
	q.Data[0] = 'H'
	if p.ACK[0] != 1 {
		t.Error("Clone shares ACK backing array")
	}
	if p.Data[0] != 'h' {
		t.Error("Clone shares Data backing array")
	}
	if q.SEQ != p.SEQ || q.CID != p.CID || q.Src != p.Src {
		t.Error("Clone lost scalar fields")
	}
}

func TestCloneNilSlices(t *testing.T) {
	p := &PDU{Kind: KindAckOnly, Src: 0}
	q := p.Clone()
	if q.ACK != nil || q.Data != nil {
		t.Error("Clone invented slices for nil fields")
	}
}

func TestKindString(t *testing.T) {
	tests := []struct {
		k    Kind
		want string
	}{
		{KindData, "DATA"},
		{KindSync, "SYNC"},
		{KindAckOnly, "ACKONLY"},
		{KindRet, "RET"},
		{Kind(42), "KIND(42)"},
	}
	for _, tt := range tests {
		if got := tt.k.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", tt.k, got, tt.want)
		}
	}
}

func TestPDUString(t *testing.T) {
	p := seqPDU(1, 3, []Seq{4, 2, 2})
	p.Data = []byte("payload")
	p.NeedAck = true
	s := p.String()
	for _, want := range []string{"DATA", "s1#3", "[4 2 2]", "len=7", "need"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
	r := &PDU{Kind: KindRet, Src: 0, ACK: []Seq{1, 1}, LSrc: 1, LSeq: 5}
	if s := r.String(); !strings.Contains(s, "lost=s1<5") {
		t.Errorf("RET String() = %q, missing lost range", s)
	}
}

func TestRelationString(t *testing.T) {
	if Precedes.String() != "≺" || Follows.String() != "≻" || Concurrent.String() != "∥" {
		t.Error("Relation strings wrong")
	}
	if !strings.Contains(Relation(9).String(), "REL") {
		t.Error("unknown Relation string wrong")
	}
}
