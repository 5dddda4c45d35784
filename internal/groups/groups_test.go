package groups

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cobcast/internal/core"
	"cobcast/internal/flight"
	"cobcast/internal/pdu"
)

// pipe joins two registries back to back: frames staged on one side are
// handed (as cloned PDU pointers, the in-memory substrate) to the other
// side's Inbound. It stands in for a transport in these tests.
type pipe struct {
	mu   sync.Mutex
	peer [2]*Registry // peer[side] is the registry inbounds are routed TO
}

func (pp *pipe) to(side int) *Registry {
	pp.mu.Lock()
	defer pp.mu.Unlock()
	return pp.peer[side]
}

// pipeFrames is one shard's Frames over the pipe: Append stages per
// group, Flush clones and crosses the pipe. Only the owning shard
// goroutine touches staged.
type pipeFrames struct {
	pp     *pipe
	side   int
	order  []uint32
	staged map[uint32][]*pdu.PDU
}

func (f *pipeFrames) Append(g uint32, p *pdu.PDU) {
	if f.staged[g] == nil {
		f.order = append(f.order, g)
	}
	f.staged[g] = append(f.staged[g], p)
}

func (f *pipeFrames) Flush() {
	for _, g := range f.order {
		batch := f.staged[g]
		clones := make([]*pdu.PDU, len(batch))
		for i, p := range batch {
			clones[i] = p.Clone()
		}
		delete(f.staged, g)
		if peer := f.pp.to(f.side); peer != nil {
			peer.Inbound(g, Inbound{PDUs: clones})
		}
	}
	f.order = f.order[:0]
}

func (f *pipeFrames) Deliver(g uint32, in Inbound, fn func(p *pdu.PDU)) {
	for _, p := range in.PDUs {
		fn(p)
	}
}

// collector gathers deliveries per group across shard goroutines.
type collector struct {
	mu   sync.Mutex
	msgs map[uint32][]core.Delivery
}

func (c *collector) add(g uint32, batch []core.Delivery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.msgs == nil {
		c.msgs = make(map[uint32][]core.Delivery)
	}
	c.msgs[g] = append(c.msgs[g], batch...)
}

func (c *collector) count(g uint32) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.msgs[g])
}

func (c *collector) get(g uint32) []core.Delivery {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.Delivery(nil), c.msgs[g]...)
}

// newPair builds two joined registries forming a 2-entity cluster per
// group; shards and maxGroups apply to both sides.
func newPair(t *testing.T, shards, maxGroups int) (a, b *Registry, ca, cb *collector, cleanup func()) {
	t.Helper()
	pp := &pipe{}
	start := time.Now()
	now := func() time.Duration { return time.Since(start) }
	mk := func(id, side int, col *collector) *Registry {
		r := New(Config{
			Shards:    shards,
			MaxGroups: maxGroups,
			NewEntity: func(g uint32, _ *core.Ledger) (*core.Entity, error) {
				return core.New(core.Config{
					ClusterID: g,
					ID:        pdu.EntityID(id),
					N:         2,
					Window:    core.DefaultWindow,
				})
			},
			NewFrames: func(shard int) Frames {
				return &pipeFrames{pp: pp, side: side, staged: make(map[uint32][]*pdu.PDU)}
			},
			Deliver: col.add,
			Tick:    time.Millisecond,
			Now:     now,
		})
		return r
	}
	ca, cb = &collector{}, &collector{}
	a = mk(0, 0, ca)
	b = mk(1, 1, cb)
	pp.mu.Lock()
	pp.peer[0], pp.peer[1] = b, a
	pp.mu.Unlock()
	return a, b, ca, cb, func() {
		pp.mu.Lock()
		pp.peer[0], pp.peer[1] = nil, nil
		pp.mu.Unlock()
		a.Close()
		b.Close()
	}
}

// knownGroups reports how many groups r has opened.
func knownGroups(r *Registry) int {
	return len(*r.known.Load())
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestMultiGroupConverges drives several groups across several shards
// and checks every message is delivered on both sides of every group,
// in per-source sequence order.
func TestMultiGroupConverges(t *testing.T) {
	a, b, ca, cb, cleanup := newPair(t, 4, 0)
	defer cleanup()

	groupIDs := []uint32{1, 2, 3, 4}
	const perGroup = 20
	for i := 0; i < perGroup; i++ {
		for _, g := range groupIDs {
			if err := a.Submit(context.Background(), g, []byte(fmt.Sprintf("g%d-m%d", g, i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor(t, "all deliveries", func() bool {
		for _, g := range groupIDs {
			if ca.count(g) != perGroup || cb.count(g) != perGroup {
				return false
			}
		}
		return a.Quiescent() && b.Quiescent()
	})
	for _, g := range groupIDs {
		for _, col := range []*collector{ca, cb} {
			ds := col.get(g)
			// Sequence numbers are shared with the engine's own SYNC PDUs
			// (a tick can slip one in under -race), so they need only rise
			// — and a packed backlog shares one, ordered by Index.
			last := core.Delivery{Index: -1}
			for i, d := range ds {
				if d.Src != 0 || d.SEQ < last.SEQ || (d.SEQ == last.SEQ && d.Index <= last.Index) {
					t.Fatalf("group %d delivery %d = src %d seq %d.%d after seq %d.%d, want src 0 in (SEQ, Index) order", g, i, d.Src, d.SEQ, d.Index, last.SEQ, last.Index)
				}
				last = d
				if want := fmt.Sprintf("g%d-m%d", g, i); string(d.Data) != want {
					t.Fatalf("group %d delivery %d data = %q, want %q", g, i, d.Data, want)
				}
			}
		}
	}
	if n := knownGroups(a); n != len(groupIDs) {
		t.Fatalf("%d groups known, want %d", n, len(groupIDs))
	}
	for _, g := range groupIDs {
		st, ok := a.Stats(g)
		if !ok || st.Delivered == 0 {
			t.Fatalf("Stats(%d) = %+v,%v", g, st, ok)
		}
	}
}

// TestLazyInstantiationAndBound checks groups exist only once touched,
// the MaxGroups bound rejects submits, and over-bound inbounds are
// dropped and counted — never a crash.
func TestLazyInstantiationAndBound(t *testing.T) {
	var drops atomic.Int64
	r := New(Config{
		Shards:    2,
		MaxGroups: 2,
		NewEntity: func(g uint32, _ *core.Ledger) (*core.Entity, error) {
			return core.New(core.Config{
				ClusterID: g, ID: 0, N: 2, Window: core.DefaultWindow,
			})
		},
		NewFrames:      func(int) Frames { return &pipeFrames{pp: &pipe{}, staged: make(map[uint32][]*pdu.PDU)} },
		Deliver:        func(uint32, []core.Delivery) {},
		DroppedUnknown: func() { drops.Add(1) },
		Now:            func() time.Duration { return 0 },
	})
	defer r.Close()

	if n := knownGroups(r); n != 0 {
		t.Fatalf("%d groups known before any input", n)
	}
	if _, ok := r.Stats(5); ok {
		t.Fatal("Stats ok for never-touched group")
	}
	if err := r.Submit(context.Background(), 5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(context.Background(), 6, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := r.Submit(context.Background(), 7, []byte("z")); !errors.Is(err, ErrTooManyGroups) {
		t.Fatalf("Submit over bound = %v, want ErrTooManyGroups", err)
	}
	r.Inbound(8, Inbound{PDUs: []*pdu.PDU{{Kind: pdu.KindAckOnly, Src: 1, ACK: []pdu.Seq{0, 0}, LSrc: pdu.NoEntity}}})
	waitFor(t, "unknown-group drop", func() bool { return drops.Load() == 1 })
	if n := knownGroups(r); n != 2 {
		t.Fatalf("%d groups known, want 2", n)
	}
}

// TestEngineFailureTombstoned checks a group whose engine cannot be
// built drops its inputs as unknown-group loss without retry storms or
// crashes.
func TestEngineFailureTombstoned(t *testing.T) {
	var drops, builds atomic.Int64
	r := New(Config{
		Shards: 1,
		NewEntity: func(g uint32, _ *core.Ledger) (*core.Entity, error) {
			builds.Add(1)
			return nil, errors.New("boom")
		},
		NewFrames:      func(int) Frames { return &pipeFrames{pp: &pipe{}, staged: make(map[uint32][]*pdu.PDU)} },
		Deliver:        func(uint32, []core.Delivery) {},
		DroppedUnknown: func() { drops.Add(1) },
		Now:            func() time.Duration { return 0 },
	})
	defer r.Close()
	in := func() Inbound {
		return Inbound{PDUs: []*pdu.PDU{{Kind: pdu.KindAckOnly, Src: 1, ACK: []pdu.Seq{0, 0}, LSrc: pdu.NoEntity}}}
	}
	r.Inbound(3, in())
	r.Inbound(3, in())
	waitFor(t, "tombstoned drops", func() bool { return drops.Load() == 2 })
	if builds.Load() != 1 {
		t.Fatalf("engine built %d times, want 1 (tombstone)", builds.Load())
	}
	if !r.Quiescent() {
		t.Fatal("registry with only tombstones should be quiescent")
	}
}

// TestCloseDropsInbound checks close is idempotent and later inbounds
// are counted drops, not panics.
func TestCloseDropsInbound(t *testing.T) {
	var drops atomic.Int64
	r := New(Config{
		Shards: 2,
		NewEntity: func(g uint32, _ *core.Ledger) (*core.Entity, error) {
			return core.New(core.Config{
				ClusterID: g, ID: 0, N: 2, Window: core.DefaultWindow,
			})
		},
		NewFrames:      func(int) Frames { return &pipeFrames{pp: &pipe{}, staged: make(map[uint32][]*pdu.PDU)} },
		Deliver:        func(uint32, []core.Delivery) {},
		DroppedUnknown: func() { drops.Add(1) },
		Now:            func() time.Duration { return 0 },
	})
	if err := r.Submit(context.Background(), 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close()
	if err := r.Submit(context.Background(), 1, []byte("y")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after close = %v, want ErrClosed", err)
	}
	r.Inbound(1, Inbound{PDUs: []*pdu.PDU{{Kind: pdu.KindAckOnly, Src: 1, ACK: []pdu.Seq{0, 0}, LSrc: pdu.NoEntity}}})
	if drops.Load() != 1 {
		t.Fatalf("drops after close = %d, want 1", drops.Load())
	}
}

// TestShardWithoutEngineRunsNoTicker pins that shards are free until
// used: a ticker starts with a shard's first engine, so a single-group
// node on a many-core machine wakes one shard per tick, not all of them.
func TestShardWithoutEngineRunsNoTicker(t *testing.T) {
	a, _, _, _, cleanup := newPair(t, 4, 0)
	defer cleanup()
	if err := a.Start(1); err != nil {
		t.Fatal(err)
	}
	owner := a.shardOf(1)
	for i, s := range a.shards {
		// ask synchronizes with the shard goroutine, which owns ticker.
		var ticking bool
		if err := s.ask(context.Background(), func(s *shard) error {
			ticking = s.ticker != nil
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if ticking != (s == owner) {
			t.Errorf("shard %d: ticking=%v, owner=%v", i, ticking, s == owner)
		}
	}
}

// TestRecordWireFilesRetUnderChasedPDU: a RET's wire crossings belong to
// the first PDU its sender misses (ACK[LSrc]) — never to LSeq, the gap's
// exclusive end, which may be a later message with a span of its own —
// and a hostile inbound RET whose LSrc falls outside its ACK vector must
// not index out of range.
func TestRecordWireFilesRetUnderChasedPDU(t *testing.T) {
	ring := flight.NewRing(8)
	eng, err := core.New(core.Config{ID: 1, N: 3, Flight: ring})
	if err != nil {
		t.Fatal(err)
	}
	ret := &pdu.PDU{Kind: pdu.KindRet, Src: 2, ACK: []pdu.Seq{4, 9, 9}, LSrc: 0, LSeq: 7}
	recordWire(eng, flight.EvWireOut, ret, time.Millisecond)
	ret.LSrc = 3
	recordWire(eng, flight.EvWireIn, ret, time.Millisecond)
	evs := ring.Snapshot(nil)
	if len(evs) != 2 || evs[0].Src != 0 || evs[0].Seq != 4 || evs[0].Peer != 2 || evs[0].Entity != 1 {
		t.Fatalf("RET filed as %+v, want src 0 seq 4 (first missing) peer 2, recorded by 1", evs)
	}
	if ev := evs[1]; ev.Src != 2 || ev.Seq != 0 {
		t.Errorf("out-of-range RET filed as %+v, want its own src 2 seq 0", ev)
	}
}

// orderFrames records the group of every PDU a shard stages, in order.
type orderFrames struct{ appended []uint32 }

func (f *orderFrames) Append(g uint32, _ *pdu.PDU)               { f.appended = append(f.appended, g) }
func (f *orderFrames) Flush()                                    {}
func (f *orderFrames) Deliver(uint32, Inbound, func(p *pdu.PDU)) {}

// TestShardVisitsEnginesInCreationOrder steps a one-shard registry
// owning ten groups, created in a scrambled order, each engine holding
// one message its only peer never confirms: every tick then draws one
// late confirmation per engine, and evicting the peer delivers every
// engine's message. Both must visit the engines in creation order, tick
// after tick, so a harness stepping a multi-group shard sees one output
// order (ranging over a map of ten groups matches it by chance with
// probability 1/10! per tick).
func TestShardVisitsEnginesInCreationOrder(t *testing.T) {
	created := []uint32{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}
	var now time.Duration
	var delivered []uint32
	f := &orderFrames{}
	r := NewStepped(Config{
		Shards: 1,
		NewEntity: func(g uint32, _ *core.Ledger) (*core.Entity, error) {
			return core.New(core.Config{ClusterID: g, ID: 0, N: 2})
		},
		NewFrames: func(int) Frames { return f },
		Deliver:   func(g uint32, _ []core.Delivery) { delivered = append(delivered, g) },
		Now:       func() time.Duration { return now },
	})
	for _, g := range created {
		if err := r.Start(g); err != nil {
			t.Fatal(err)
		}
		if err := r.Submit(context.Background(), g, []byte{byte(g)}); err != nil {
			t.Fatal(err)
		}
	}
	for tick := 0; tick < 20; tick++ {
		now += time.Second
		f.appended = f.appended[:0]
		r.Tick()
		if fmt.Sprint(f.appended) != fmt.Sprint(created) {
			t.Fatalf("tick %d staged groups %v, want creation order %v", tick, f.appended, created)
		}
	}
	if err := r.Evict(1); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(delivered) != fmt.Sprint(created) {
		t.Fatalf("evict delivered groups %v, want creation order %v", delivered, created)
	}
}

// TestEvictReachesEveryShard builds a stepped two-shard registry whose
// groups land on both shards, evicts peer 2 through Registry.Evict and
// requires every engine on every shard to have evicted it, and a group
// built afterwards to start without it.
func TestEvictReachesEveryShard(t *testing.T) {
	r := NewStepped(Config{
		Shards: 2,
		NewEntity: func(g uint32, _ *core.Ledger) (*core.Entity, error) {
			return core.New(core.Config{ClusterID: g, ID: 0, N: 3})
		},
		NewFrames: func(int) Frames { return &orderFrames{} },
		Deliver:   func(uint32, []core.Delivery) {},
		Now:       func() time.Duration { return 0 },
	})
	groups := []uint32{0, 1, 2, 3, 4, 5}
	owners := map[*shard]bool{}
	for _, g := range groups {
		if err := r.Start(g); err != nil {
			t.Fatal(err)
		}
		owners[r.shardOf(g)] = true
	}
	if len(owners) != 2 {
		t.Fatalf("groups %v landed on %d shard(s), want both", groups, len(owners))
	}
	if err := r.Evict(2); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(6); err != nil {
		t.Fatal(err)
	}
	for _, g := range append(groups, 6) {
		var evicted bool
		if !r.query(g, false, func(eng *core.Entity, _ time.Duration) { evicted = eng.Evicted(2) }) {
			t.Fatalf("group %d has no engine", g)
		}
		if !evicted {
			t.Errorf("group %d still counts peer 2 after Registry.Evict", g)
		}
	}
}

// flushFrames records, per flush, the kind of every PDU each group
// staged.
type flushFrames struct {
	staged  map[uint32][]pdu.Kind
	flushes []map[uint32][]pdu.Kind
}

func (f *flushFrames) Append(g uint32, p *pdu.PDU) {
	if f.staged == nil {
		f.staged = make(map[uint32][]pdu.Kind)
	}
	f.staged[g] = append(f.staged[g], p.Kind)
}

func (f *flushFrames) Flush() {
	f.flushes = append(f.flushes, f.staged)
	f.staged = nil
}

func (f *flushFrames) Deliver(_ uint32, in Inbound, fn func(p *pdu.PDU)) {
	for _, p := range in.PDUs {
		fn(p)
	}
}

// twoRoundFrame is one inbound frame carrying three peers' PDUs to
// entity 0 of a four-entity cluster: each peer's first DATA, then each
// peer's SYNC acknowledging all three. Fed one PDU at a time, entity 0
// confirms twice: round 1 once it has heard from every peer, round 2
// once every peer's round 1 is in.
func twoRoundFrame(g uint32) []*pdu.PDU {
	var ps []*pdu.PDU
	for seq := pdu.Seq(1); seq <= 2; seq++ {
		for src := pdu.EntityID(1); src <= 3; src++ {
			ack := []pdu.Seq{1, 1, 1, 1}
			kind := pdu.KindData
			if seq == 2 {
				ack = []pdu.Seq{1, 2, 2, 2}
				kind = pdu.KindSync
			}
			ack[src] = seq
			ps = append(ps, &pdu.PDU{Kind: kind, CID: g, Src: src, SEQ: seq, ACK: ack,
				NeedAck: kind == pdu.KindData, LSrc: pdu.NoEntity, BUF: core.BufferUnits})
		}
	}
	return ps
}

// TestStepSendsOneConfirmationPerEngine steps a registry whose one
// inbound frame per group carries three peers' PDUs that draw two SYNCs
// when fed one at a time: the shard holds each engine's confirmation
// for the step, so each step's flush carries exactly one SYNC for the
// engine it fed, and a tick that finds nothing due adds none.
func TestStepSendsOneConfirmationPerEngine(t *testing.T) {
	newEntity := func(g uint32, _ *core.Ledger) (*core.Entity, error) {
		return core.New(core.Config{ClusterID: g, ID: 0, N: 4})
	}
	bare, _ := newEntity(7, nil)
	var syncs int
	for _, p := range twoRoundFrame(7) {
		out, err := bare.Receive(p, 0)
		if err != nil {
			t.Fatal(err)
		}
		syncs += len(out.PDUs)
	}
	if syncs != 2 {
		t.Fatalf("the frame fed one PDU at a time drew %d confirmations, want 2", syncs)
	}

	f := &flushFrames{}
	r := NewStepped(Config{
		Shards:    1,
		NewEntity: newEntity,
		NewFrames: func(int) Frames { return f },
		Deliver:   func(uint32, []core.Delivery) {},
		Now:       func() time.Duration { return 0 },
	})
	defer r.Close()
	groups := []uint32{7, 8, 9}
	for _, g := range groups {
		r.Inbound(g, Inbound{PDUs: twoRoundFrame(g)})
	}
	if len(f.flushes) != len(groups) {
		t.Fatalf("%d inbounds flushed %d times", len(groups), len(f.flushes))
	}
	for i, g := range groups {
		want := map[uint32][]pdu.Kind{g: {pdu.KindSync}}
		if got := f.flushes[i]; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("step %d (group %d) flushed %v, want %v", i, g, got, want)
		}
	}
	r.Tick()
	if got := f.flushes[len(f.flushes)-1]; len(got) != 0 {
		t.Errorf("a tick with nothing due flushed %v", got)
	}
}
