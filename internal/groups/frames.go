package groups

import (
	"errors"

	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
	"cobcast/internal/udpnet"
)

// PDUSender is memFrames' substrate: PDUs move as shared pointers tagged
// with their group (a network.Port, on either clock).
type PDUSender interface {
	BroadcastGroup(g uint32, batch ...*pdu.PDU) error
}

// FrameSender is wireFrames' substrate: encoded frames (a Transport).
// Broadcast must not retain the datagram.
type FrameSender interface {
	Broadcast(datagram []byte) error
}

// BatchSender is a FrameSender's optional batched send (a
// BatchTransport): several datagrams at once, in slice order, none
// retained.
type BatchSender interface {
	BroadcastBatch(datagrams [][]byte) error
}

// MemBatchMax bounds how many PDUs memFrames stages per group before
// sending early; it plays the role MaxDatagram plays on the wire and
// keeps a long drain from growing the staging slice without bound.
const MemBatchMax = 128

// NewMemFrames returns a shard's Frames over a PDU-pointer substrate. lm
// may be nil.
func NewMemFrames(port PDUSender, lm *obsv.LinkMetrics) Frames {
	return &memFrames{port: port, lm: lm, staged: make(map[uint32][]*pdu.PDU)}
}

// memFrames is one shard's Frames over the in-memory network. PDUs move
// as pointers: Append stages them per group, and every receiver's
// Deliver gets the sender's own PDUs, shared and never written (see
// core.Entity.Receive).
type memFrames struct {
	port PDUSender
	lm   *obsv.LinkMetrics // nil unless instrumented
	// staged holds each group's batch, its backing array kept across
	// flushes; order lists the groups that have one, in first-append
	// order.
	staged map[uint32][]*pdu.PDU
	order  []uint32
}

func (f *memFrames) Append(g uint32, p *pdu.PDU) {
	batch := f.staged[g]
	if len(batch) == 0 {
		f.order = append(f.order, g)
	}
	batch = append(batch, p)
	if len(batch) >= MemBatchMax {
		batch = f.send(g, batch, true)
	}
	f.staged[g] = batch
}

func (f *memFrames) Flush() {
	for _, g := range f.order {
		f.staged[g] = f.send(g, f.staged[g], false)
	}
	f.order = f.order[:0]
}

// send broadcasts group g's batch as one datagram and returns it
// emptied for reuse.
func (f *memFrames) send(g uint32, batch []*pdu.PDU, early bool) []*pdu.PDU {
	if len(batch) == 0 {
		return batch
	}
	f.lm.Flush(len(batch), early)
	_ = f.port.BroadcastGroup(g, batch...) // fails only on Close
	clear(batch)
	return batch[:0]
}

func (f *memFrames) Deliver(g uint32, in Inbound, fn func(p *pdu.PDU)) {
	for _, p := range in.PDUs {
		fn(p)
	}
}

// wireBatchMax bounds how many sealed frames wireFrames stages before
// sending them mid-drain; it keeps one very long input burst from
// growing the staging buffers without bound while still letting the
// common burst ride down in a single BroadcastBatch call.
const wireBatchMax = 16

// NewWireFrames returns a shard's Frames over a byte substrate. lm may
// be nil. stampK is the delta-stamp codec's full-stamp sync interval
// (see pdu.NewStampEncoder; 0 selects the codec default).
func NewWireFrames(trans FrameSender, lm *obsv.LinkMetrics, stampK int) Frames {
	f := &wireFrames{trans: trans, lm: lm, stampK: stampK, chans: make(map[uint32]*wireChan)}
	f.bt, _ = trans.(BatchSender)
	return f
}

// wireFrames is one shard's Frames over a byte transport. Append
// marshals each PDU straight into its group's in-progress batch frame
// (sealing it into the staged set first if the PDU would push the frame
// past udpnet.MaxDatagram); Flush seals every open frame — one per group
// that spoke since the last flush — and hands the whole staged set to
// the transport, in one BroadcastBatch call when the transport
// implements BatchSender (the UDP transport's sendmmsg path turns that
// into one syscall per flush, shared by all the shard's groups), else
// one Broadcast per frame. Deliver decodes arriving frames into a reused
// scratch PDU — so the whole encode/decode hot path is allocation-free
// in steady state, reusing a small set of grown frame buffers and the
// transport's datagram pool.
//
// Each group is an independent sequence space, and delta stamps
// reference per-source, per-group streams, so encoder, decoder and stamp
// state are all per group.
//
// Only the owning shard touches a wireFrames; the transport underneath
// accepts concurrent sends from all shards.
type wireFrames struct {
	trans FrameSender
	// bt is trans's batched-send extension, nil when unimplemented.
	bt     BatchSender
	lm     *obsv.LinkMetrics // nil unless instrumented
	stampK int

	chans map[uint32]*wireChan
	// open lists the groups with a frame in progress, in first-append
	// order. staged holds sealed frames awaiting send, in seal order —
	// which keeps each group's frames, and so each sender's PDUs, in
	// order on the wire. free holds build buffers between uses, so each
	// grows once.
	open    []*wireChan
	staged  [][]byte
	free    [][]byte
	scratch pdu.PDU
}

// wireChan is one group's framing state on one shard.
type wireChan struct {
	group uint32
	enc   pdu.FrameEncoder
	// stamps is the reference-stamp state threaded through every frame
	// this group sends.
	stamps *pdu.StampEncoder
	active bool // enc has a frame in progress
	dec    pdu.FrameDecoder
	// sdec caches the last stamp decoded per source, mirroring each
	// sender's stream across frames (see pdu.StampDecoder).
	sdec pdu.StampDecoder
}

func (f *wireFrames) channel(g uint32) *wireChan {
	c, ok := f.chans[g]
	if !ok {
		c = &wireChan{group: g, stamps: pdu.NewStampEncoder(f.stampK)}
		c.dec.SetStampDecoder(&c.sdec)
		f.chans[g] = c
	}
	return c
}

// begin opens c's next outgoing frame in a free build buffer: the v2
// header for group 0 — a single-group node's datagrams carry no trace of
// the multi-group runtime — and the group-addressed v3 header otherwise.
func (f *wireFrames) begin(c *wireChan) {
	var buf []byte
	if n := len(f.free); n > 0 {
		buf, f.free = f.free[n-1], f.free[:n-1]
	} else {
		buf = make([]byte, 0, 4096)
	}
	if c.group != 0 {
		c.enc.BeginGroup(buf, c.group, pdu.WireVersion2, c.stamps)
	} else {
		c.enc.BeginV2(buf, c.stamps)
	}
}

func (f *wireFrames) Append(g uint32, p *pdu.PDU) {
	c := f.channel(g)
	switch {
	case !c.active:
		c.active = true
		f.open = append(f.open, c)
		f.begin(c)
	case c.enc.Count() > 0 && c.enc.Size()+pdu.FrameEntrySize+p.EncodedSizeV2Bound() > udpnet.MaxDatagram:
		f.seal(c, true)
		if len(f.staged) >= wireBatchMax {
			f.sendStaged()
		}
		f.begin(c)
	}
	// An Append error means the PDU itself cannot be encoded (field
	// overflow): it is dropped like transport loss, and counted.
	if c.enc.Append(p) != nil {
		f.lm.EncodeDrop()
	}
}

func (f *wireFrames) Flush() {
	for _, c := range f.open {
		f.seal(c, false)
		c.active = false
	}
	f.open = f.open[:0]
	f.sendStaged()
}

// seal closes c's in-progress frame into the staged set (or, if every
// PDU appended to it failed to encode, just reclaims its buffer).
func (f *wireFrames) seal(c *wireChan, early bool) {
	b := c.enc.Bytes()
	if c.enc.Count() == 0 {
		f.free = append(f.free, b[:0])
		return
	}
	f.lm.Flush(c.enc.Count(), early)
	f.lm.FlushBytes(len(b))
	f.staged = append(f.staged, b)
}

// sendStaged hands every sealed frame to the transport and reclaims the
// buffers. Loss and oversize are the transport's to count; the protocol
// repairs both via selective retransmission.
func (f *wireFrames) sendStaged() {
	switch {
	case len(f.staged) == 0:
		return
	case len(f.staged) == 1:
		_ = f.trans.Broadcast(f.staged[0])
	case f.bt != nil:
		_ = f.bt.BroadcastBatch(f.staged)
	default:
		for _, b := range f.staged {
			_ = f.trans.Broadcast(b)
		}
	}
	for _, b := range f.staged {
		f.free = append(f.free, b[:0])
	}
	f.staged = f.staged[:0]
}

func (f *wireFrames) Deliver(g uint32, in Inbound, fn func(p *pdu.PDU)) {
	c := f.channel(g)
	// A decode error means a truncated or corrupt frame tail: PDUs
	// decoded before it stand, the rest are lost datagram content the
	// protocol recovers via RET (a header Reset rejects — a retired v1
	// frame, say — loses the frame whole). A delta entry whose reference
	// stamp this receiver never saw (pdu.ErrDeltaDesync) is the same
	// thing one level up — the reference was lost in transit — so the
	// frame remainder is dropped as loss too, repaired by retransmission
	// or the sender's next full-stamp sync point. The two are counted
	// apart.
	err := c.dec.Reset(in.Raw)
	if err == nil {
		f.lm.RecvBytes(len(in.Raw))
	}
	for err == nil {
		var ok bool
		ok, err = c.dec.Next(&f.scratch)
		if !ok {
			break
		}
		// Sequenced PDUs are retained by the entity and must be cloned
		// out of scratch; control PDUs are only read during Receive.
		if f.scratch.Kind.Sequenced() {
			fn(f.scratch.Clone())
		} else {
			fn(&f.scratch)
		}
	}
	switch {
	case errors.Is(err, pdu.ErrDeltaDesync):
		f.lm.StampDesync()
	case err != nil:
		f.lm.DecodeDrop()
	}
	pdu.PutDatagram(in.Raw)
}

// RouteFrame classifies one received frame by the group its header
// names, without decoding the body: v2 frames are group 0; a v3 group ID
// past pdu.MaxGroupID (a corrupted or hostile header) is dropped whole,
// counted on lm as unknown-group loss, and reported false. Headers too
// mangled to classify go to group 0, whose decoder rejects them as
// generic loss.
func RouteFrame(b []byte, lm *obsv.LinkMetrics) (uint32, Inbound, bool) {
	g, ok := pdu.FrameGroup(b)
	if ok && g > pdu.MaxGroupID {
		lm.UnknownGroup()
		pdu.PutDatagram(b)
		return 0, Inbound{}, false
	}
	return g, Inbound{Raw: b}, true
}
