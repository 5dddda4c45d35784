package core

// Message-level property of the packed engine: whatever the schedule,
// every entity hands the application every source's payloads exactly
// once, in submission order — although a backlog rides several to a PDU.

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"time"

	"cobcast/internal/pdu"
)

// packMesh is n entities on per-channel FIFO queues (the MC service)
// with a log of what each entity submitted and delivered. Payloads are
// (src, ordinal, padding), so a delivery names its place in its source's
// submission order whatever PDU carried it.
type packMesh struct {
	t      *testing.T
	seed   int64
	rng    *rand.Rand
	ents   []*Entity
	queues [][]*pdu.PDU // queues[from*n+to]
	now    time.Duration
	// crashed entities neither run nor get mail; submitted[s] counts
	// s's submissions, got[i] is i's delivery sequence.
	crashed   []bool
	submitted []int
	got       [][]Delivery
}

func (m *packMesh) route(from int, out Output) {
	n := len(m.ents)
	for _, p := range out.PDUs {
		for to := 0; to < n; to++ {
			if to != from && !m.crashed[to] {
				m.queues[from*n+to] = append(m.queues[from*n+to], p.Clone())
			}
		}
	}
	// Consumed at once, as shard.dispatch does: the entity reuses the
	// slice at its next input. An input that delivered nothing must show
	// none of the previous input's deliveries.
	if fresh := int(m.ents[from].Stats().Delivered) - len(m.got[from]); len(out.Deliveries) != fresh {
		m.t.Fatalf("seed %d: entity %d returned %d deliveries from an input that made %d", m.seed, from, len(out.Deliveries), fresh)
	}
	m.got[from] = append(m.got[from], out.Deliveries...)
}

func (m *packMesh) submit(i, size int) {
	m.submitted[i]++
	data := make([]byte, 8+size)
	binary.BigEndian.PutUint32(data, uint32(i))
	binary.BigEndian.PutUint32(data[4:], uint32(m.submitted[i]))
	m.route(i, m.ents[i].Submit(data, m.now))
}

func (m *packMesh) receive(to int, p *pdu.PDU) {
	out, err := m.ents[to].Receive(p, m.now)
	if err != nil {
		m.t.Fatalf("seed %d: receive at %d: %v", m.seed, to, err)
	}
	m.route(to, out)
}

// walk runs steps random inputs: bursts of submissions (so backlogs form
// behind the small windows), ticks, and deliveries with loss and
// duplication, checking the acting entity's invariants after each.
func (m *packMesh) walk(steps int) {
	n := len(m.ents)
	for step := 0; step < steps; step++ {
		m.now += time.Duration(m.rng.Intn(300)) * time.Microsecond
		i := m.rng.Intn(n)
		if m.crashed[i] {
			continue
		}
		switch m.rng.Intn(10) {
		case 0, 1:
			for k := 1 + m.rng.Intn(6); k > 0; k-- {
				// Mostly small messages; now and then one that fills
				// over half a pack, so two of them cannot share.
				size := m.rng.Intn(40)
				if m.rng.Intn(25) == 0 {
					size = pdu.MaxPackBytes/2 + m.rng.Intn(64)
				}
				m.submit(i, size)
			}
		case 2:
			m.route(i, m.ents[i].Tick(m.now))
		default:
			q := &m.queues[m.rng.Intn(n)*n+i]
			if len(*q) == 0 {
				continue
			}
			p := (*q)[0]
			switch m.rng.Intn(10) {
			case 0: // lost
				*q = (*q)[1:]
			case 1: // duplicated: delivered without popping
				m.receive(i, p.Clone())
			default:
				*q = (*q)[1:]
				m.receive(i, p)
			}
		}
		checkInvariants(m.t, m.ents[i], step)
	}
}

// settle runs the mesh lossless until every running entity is quiescent
// and has delivered everything submitted.
func (m *packMesh) settle() {
	n := len(m.ents)
	total := 0
	for _, c := range m.submitted {
		total += c
	}
	for round := 0; round < 5000; round++ {
		done := true
		for i, e := range m.ents {
			if !m.crashed[i] && (!e.Quiescent() || len(m.got[i]) < total) {
				done = false
			}
		}
		if done {
			return
		}
		for ch := range m.queues {
			q := m.queues[ch]
			m.queues[ch] = nil
			for _, p := range q {
				if to := ch % n; !m.crashed[to] {
					m.receive(to, p)
				}
			}
		}
		m.now += time.Millisecond
		for i, e := range m.ents {
			if !m.crashed[i] {
				m.route(i, e.Tick(m.now))
				checkInvariants(m.t, e, round)
			}
		}
	}
	for i, e := range m.ents {
		m.t.Logf("entity %d: crashed=%v delivered %d/%d snapshot %+v", i, m.crashed[i], len(m.got[i]), total, e.Snapshot())
	}
	m.t.Fatalf("seed %d: mesh did not settle", m.seed)
}

func TestPackedBacklogDeliversEveryMessageOnceInOrder(t *testing.T) {
	var msgs, dataPDUs uint64
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(4)
		totalOrder := seed%3 == 0
		crash := n > 2 && seed%4 == 0
		m := &packMesh{t: t, seed: seed, rng: rng, ents: make([]*Entity, n),
			queues: make([][]*pdu.PDU, n*n), crashed: make([]bool, n),
			submitted: make([]int, n), got: make([][]Delivery, n)}
		for i := range m.ents {
			e, err := New(Config{
				ID: pdu.EntityID(i), N: n,
				Window:              pdu.Seq(1 + rng.Intn(3)),
				DeferredAckInterval: time.Millisecond,
				RetransmitTimeout:   2 * time.Millisecond,
				TotalOrder:          totalOrder,
				Ledger:              NewLedger(1 << 30),
			})
			if err != nil {
				t.Fatal(err)
			}
			m.ents[i] = e
		}
		m.walk(400)
		if crash {
			// The last entity crashes once its PDUs are everywhere (the
			// only crash eviction can repair, evict.go), and stays in
			// everyone's quorum for a while: the survivors' windows
			// close on it, their backlogs grow, and each one's Evict
			// then has a queue to drain packed.
			m.settle()
			victim := n - 1
			m.crashed[victim] = true
			for ch := range m.queues {
				if ch/n == victim || ch%n == victim {
					m.queues[ch] = nil
				}
			}
			m.walk(200)
			for i, e := range m.ents[:victim] {
				out, err := e.Evict(pdu.EntityID(victim), m.now)
				if err != nil {
					t.Fatal(err)
				}
				m.route(i, out)
			}
		}
		m.walk(200)
		m.settle()

		for i, e := range m.ents {
			if m.crashed[i] {
				continue
			}
			next := make([]uint32, n)
			last := make([]Delivery, n)
			for pos, d := range m.got[i] {
				src, ord := binary.BigEndian.Uint32(d.Data), binary.BigEndian.Uint32(d.Data[4:])
				if src != uint32(d.Src) || ord != next[src]+1 {
					t.Fatalf("seed %d: entity %d delivery %d is s%d#%d.%d carrying (src %d, ordinal %d), want ordinal %d",
						seed, i, pos, d.Src, d.SEQ, d.Index, src, ord, next[d.Src]+1)
				}
				next[src] = ord
				// (Src, SEQ, Index) is the message's identity: it rises
				// strictly along a source's stream.
				if l := last[src]; l.Data != nil && (d.SEQ < l.SEQ || (d.SEQ == l.SEQ && d.Index != l.Index+1) || (d.SEQ > l.SEQ && d.Index != 0)) {
					t.Fatalf("seed %d: entity %d: s%d#%d.%d delivered after #%d.%d", seed, i, src, d.SEQ, d.Index, l.SEQ, l.Index)
				}
				last[src] = d
			}
			for s, c := range m.submitted {
				if int(next[s]) != c {
					t.Fatalf("seed %d: entity %d delivered %d of source %d's %d messages", seed, i, next[s], s, c)
				}
			}
			if totalOrder {
				for pos, d := range m.got[0] {
					if o := m.got[i][pos]; o.Src != d.Src || o.SEQ != d.SEQ || o.Index != d.Index || o.LTime != d.LTime {
						t.Fatalf("seed %d: total order differs at %d: entity 0 s%d#%d.%d, entity %d s%d#%d.%d",
							seed, pos, d.Src, d.SEQ, d.Index, i, o.Src, o.SEQ, o.Index)
					}
				}
			}
			// Drained: no payload is charged anywhere — what the ledger
			// still holds is the trailing SYNCs nothing is left to flush
			// (checkInvariants ties it to the logs byte for byte).
			st, dr := e.Stats(), e.Snapshot()
			if dr.DataResident != 0 || dr.ParkedData != 0 || dr.PendingSubmits != 0 || dr.SendLogData != 0 || dr.ReleasePending != 0 {
				t.Fatalf("seed %d: entity %d settled holding data: %+v", seed, i, dr)
			}
			rrl := 0
			for _, l := range dr.RRL {
				rrl += l
			}
			residue := int64(dr.Parked+rrl+dr.PRL+dr.ARL+dr.SendLog) * pduCost(0, n)
			if got := e.cfg.Ledger.Bytes(); got != residue {
				t.Fatalf("seed %d: entity %d ledger %d B after drain, want the %d B of its trailing SYNCs", seed, i, got, residue)
			}
			if st.MsgsSent != uint64(m.submitted[i]) || st.Delivered != uint64(len(m.got[i])) {
				t.Fatalf("seed %d: entity %d MsgsSent %d Delivered %d, submitted %d delivered %d",
					seed, i, st.MsgsSent, st.Delivered, m.submitted[i], len(m.got[i]))
			}
			msgs += st.MsgsSent
			dataPDUs += st.DataSent
		}
	}
	t.Logf("%d messages rode %d DATA PDUs", msgs, dataPDUs)
	if msgs < 2*dataPDUs {
		t.Fatalf("%d messages rode %d DATA PDUs: the schedules did not keep the windows closed", msgs, dataPDUs)
	}
}

// TestHostilePackRejectedBeforeAcceptance: a malformed pack is a typed
// error counted in InvalidPDUs and leaves no trace — no REQ advance, no
// residency, not one of its messages delivered — and the same SEQ is
// then accepted from the honest sender.
func TestHostilePackRejectedBeforeAcceptance(t *testing.T) {
	e, err := New(Config{ID: 0, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Hold() // no deferred confirmation: every PDU out is the script's
	good := pdu.AppendMessage(pdu.AppendMessage(nil, []byte("one")), []byte("two"))
	hostile := [][]byte{
		append(append([]byte(nil), good...), 0x09, 'x'), // overrun after two good messages
		pdu.AppendMessage(nil, []byte("solo")),
		nil,
	}
	for i, data := range hostile {
		p := &pdu.PDU{Kind: pdu.KindData, Src: 1, SEQ: 1, ACK: []pdu.Seq{1, 1}, LSrc: pdu.NoEntity, Data: data, Packed: true}
		out, err := e.Receive(p, 0)
		if !errors.Is(err, pdu.ErrBadPack) {
			t.Fatalf("hostile pack %d: err = %v, want ErrBadPack", i, err)
		}
		if !out.Empty() || e.Resident() != 0 || e.REQ()[1] != 1 {
			t.Fatalf("hostile pack %d left a trace: out %+v resident %d req %v", i, out, e.Resident(), e.REQ())
		}
		if got := e.Stats().InvalidPDUs; got != uint64(i+1) {
			t.Fatalf("InvalidPDUs = %d after %d hostile packs", got, i+1)
		}
	}
	sync := &pdu.PDU{Kind: pdu.KindSync, Src: 1, SEQ: 1, ACK: []pdu.Seq{1, 1}, LSrc: pdu.NoEntity, Packed: true}
	if _, err := e.Receive(sync, 0); !errors.Is(err, pdu.ErrBadPack) {
		t.Fatalf("packed SYNC: err = %v, want ErrBadPack", err)
	}
	p := &pdu.PDU{Kind: pdu.KindData, Src: 1, SEQ: 1, ACK: []pdu.Seq{1, 1}, LSrc: pdu.NoEntity, Data: good, Packed: true}
	if _, err := e.Receive(p, 0); err != nil || e.REQ()[1] != 2 {
		t.Fatalf("honest pack after the hostile ones: err %v req %v", err, e.REQ())
	}
}

// TestOutputDeliveriesValidUntilNextInput pins Output's ownership rule
// (config.go): Deliveries is the entity's buffer — whole while the
// caller consumes it, reused by the next input. The next input clears
// exactly the prefix the previous one used: less would leave a Data
// pinning its PDU, more (up to cap) would make every input pay for the
// largest commit burst the entity ever saw.
func TestOutputDeliveriesValidUntilNextInput(t *testing.T) {
	const msgs = 40
	ents := make([]*Entity, 2)
	for i := range ents {
		e, err := New(Config{ID: pdu.EntityID(i), N: 2, Window: 2, DeferredAckInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		ents[i] = e
	}
	var (
		now      time.Duration
		inbox    [2][]*pdu.PDU
		consumed []Delivery // entity 1's deliveries, copied out per output
		reused   bool
		prev     []Delivery
	)
	emit := func(from int, out Output) {
		inbox[1-from] = append(inbox[1-from], out.PDUs...)
		if from != 1 {
			return
		}
		if len(prev) > 0 && len(out.Deliveries) > 0 && &prev[0] == &out.Deliveries[0] {
			reused = true
		}
		consumed = append(consumed, out.Deliveries...)
		prev = out.Deliveries
	}
	// One submission per round, and a tick only for an entity that got
	// nothing, so that entity 1 commits a message or two on each of
	// many consecutive inputs: a burst submitted at once rides one pack
	// and commits on one input, and a tick after every batch puts an
	// empty output between any two that deliver.
	sent := 0
	for round := 0; len(consumed) < msgs; round++ {
		if sent < msgs {
			sent++
			emit(0, ents[0].Submit([]byte{byte(sent)}, now))
		}
		if round == 1000 {
			t.Fatalf("entity 1 delivered %d of %d", len(consumed), msgs)
		}
		now += time.Millisecond
		for to := range ents {
			batch := inbox[to]
			inbox[to] = nil
			for _, p := range batch {
				out, err := ents[to].Receive(p.Clone(), now)
				if err != nil {
					t.Fatal(err)
				}
				emit(to, out)
			}
			if len(batch) == 0 {
				emit(to, ents[to].Tick(now))
			}
		}
	}
	for i, d := range consumed {
		if len(d.Data) != 1 || int(d.Data[0]) != i+1 {
			t.Fatalf("delivery %d carries %v after later inputs reused the buffer, want [%d]", i, d.Data, i+1)
		}
	}
	if !reused {
		t.Fatal("no two outputs shared a buffer: the entity allocates Deliveries per input again")
	}

	// An input that delivers nothing after one that used part of the
	// buffer: the used prefix is cleared, the rest is not touched.
	e := ents[1]
	whole := e.delivered[:cap(e.delivered)]
	if len(whole) < 2 {
		t.Fatalf("the burst left a buffer of %d", len(whole))
	}
	last := len(whole) - 1
	whole[0], whole[last] = consumed[0], consumed[1]
	e.delivered = whole[:1]
	if out := e.Tick(now); len(out.Deliveries) != 0 {
		t.Fatalf("idle tick delivered %v", out.Deliveries)
	}
	if whole[0].Data != nil {
		t.Fatal("the used prefix still holds a payload after the next input")
	}
	if whole[last].Data == nil {
		t.Fatal("the next input cleared the buffer beyond the used prefix")
	}
}
