// Package udpnet is a UDP transport for cobcast nodes. It substitutes for
// the paper's Ethernet testbed: datagrams may be lost, duplicated or
// reordered across senders, while a single sender's datagrams to one
// receiver stay ordered on a LAN or loopback path in practice — the MC
// service contract. Receive-buffer overrun shows up naturally: when the
// inbox channel is full, datagrams are dropped, exactly the loss mode the
// CO protocol is designed to repair.
//
// On Linux the transport amortizes syscalls: Broadcast sends one
// datagram to every peer with a single sendmmsg, BroadcastBatch sends a
// whole flush's frames to every peer with a single sendmmsg, and the
// read loop drains up to a ring's worth of datagrams per recvmmsg into
// pooled buffers. Elsewhere (and when disabled) the per-datagram
// WriteToUDP/ReadFromUDP path is used; both paths are byte-identical on
// the wire and share one set of counters.
package udpnet

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"cobcast/internal/obsv"
	"cobcast/internal/pdu"
)

// MaxDatagram is the largest datagram the transport accepts. Frame size
// grows with batch size and O(n) per PDU via the ACK vector; 60 KiB fits
// loopback and jumbo-frame LANs. Broadcast enforces this bound and
// returns ErrDatagramTooLarge beyond it.
const MaxDatagram = 60 * 1024

// DefaultSocketBuffer is the SO_RCVBUF/SO_SNDBUF size requested for new
// transports unless WithSocketBuffers overrides it. ~4 MiB absorbs a
// burst of ~70 max-size datagrams in the kernel before the OS starts
// dropping; kernel-level drops are invisible to the Overrun counter
// (which only sees inbox-channel overflow), so a generous kernel buffer
// keeps the observable loss mode the one the protocol is built around.
const DefaultSocketBuffer = 4 << 20

// ErrDatagramTooLarge is returned by Broadcast for datagrams over
// MaxDatagram; each rejection is also counted in Stats.Oversize.
var ErrDatagramTooLarge = errors.New("udpnet: datagram exceeds MaxDatagram")

// Stats counts transport-level events.
type Stats struct {
	Sent     uint64
	Received uint64
	// Overrun counts datagrams dropped because the inbox was full.
	Overrun uint64
	// ReadErrors counts failed or short reads.
	ReadErrors uint64
	// Oversize counts datagrams rejected by Broadcast for exceeding
	// MaxDatagram.
	Oversize uint64
	// SendErrors counts per-peer transmissions the kernel rejected
	// (EPERM, ENOBUFS, unreachable peer, ...); Sent counts only
	// successes, so Sent+SendErrors is the number attempted.
	SendErrors uint64
	// BytesSent and BytesReceived count datagram payload bytes on the
	// wire; BytesSent accumulates once per successful peer
	// transmission, like Sent.
	BytesSent     uint64
	BytesReceived uint64
	// SendmmsgCalls and RecvmmsgCalls count batched syscalls on the
	// Linux fast path (0 on the portable path); Sent/SendmmsgCalls is
	// the send-side amortization ratio.
	SendmmsgCalls uint64
	RecvmmsgCalls uint64
}

// Option configures a Transport at construction.
type Option func(*config)

type config struct {
	// batch is the explicit WithBatchSyscalls choice; nil means
	// platform auto-detection.
	batch *bool
	// sockBuf is the requested SO_RCVBUF/SO_SNDBUF size in bytes;
	// <= 0 leaves the OS defaults.
	sockBuf int
}

// WithBatchSyscalls forces the batched sendmmsg/recvmmsg wire path on
// or off. The default is auto-detection: batched on Linux (falling back
// at runtime if the kernel rejects the syscalls), per-datagram
// elsewhere.
func WithBatchSyscalls(on bool) Option {
	return func(c *config) { c.batch = &on }
}

// WithSocketBuffers requests kernel socket buffers of the given size
// (SO_RCVBUF and SO_SNDBUF, bytes) instead of the DefaultSocketBuffer.
// bytes <= 0 leaves the OS defaults in place. The kernel may cap the
// request (Linux: net.core.rmem_max/wmem_max); the effective sizes are
// reported by SocketBuffers and in /statez. Note the interaction with
// Stats.Overrun: Overrun counts only inbox-channel overflow, while an
// undersized kernel buffer drops datagrams before the transport ever
// sees them — if delivered traffic looks lossy with Overrun at 0, the
// kernel buffer is the first suspect.
func WithSocketBuffers(bytes int) Option {
	return func(c *config) { c.sockBuf = bytes }
}

// Transport is a cobcast.Transport over UDP.
type Transport struct {
	conn  *net.UDPConn
	peers []*net.UDPAddr
	recv  chan []byte

	stop      chan struct{}
	readDone  chan struct{}
	closeOnce sync.Once
	closeErr  error

	// batch reports whether the sendmmsg/recvmmsg fast path was
	// selected at construction (it may still fall back at runtime on
	// an unsupported kernel; mm tracks that).
	batch bool
	// readBufBytes/writeBufBytes are the effective kernel socket
	// buffer sizes (0 = OS default left in place).
	readBufBytes, writeBufBytes int

	// mm is the platform-specific batched-syscall state; empty on
	// non-Linux builds.
	mm mmsgState

	// m holds the transport counters on the shared obsv atomic type —
	// the single counting scheme for the whole runtime. The send path
	// (Broadcast/BroadcastBatch, caller goroutine) and the receive
	// path (read-loop goroutine) write disjoint counters; Stats and
	// registry scrapers read from any goroutine via atomic loads.
	m obsv.TransportMetrics
}

// New binds a UDP socket on local (e.g. "127.0.0.1:9001") and targets the
// given peer addresses (every other cluster member). inboxCap bounds the
// receive queue; 0 means 1024.
func New(local string, peers []string, inboxCap int, opts ...Option) (*Transport, error) {
	if len(peers) == 0 {
		return nil, errors.New("udpnet: no peers")
	}
	if inboxCap <= 0 {
		inboxCap = 1024
	}
	cfg := config{sockBuf: DefaultSocketBuffer}
	for _, opt := range opts {
		opt(&cfg)
	}
	laddr, err := net.ResolveUDPAddr("udp", local)
	if err != nil {
		return nil, fmt.Errorf("udpnet: local %q: %w", local, err)
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %q: %w", local, err)
	}
	t := &Transport{
		conn:     conn,
		recv:     make(chan []byte, inboxCap),
		stop:     make(chan struct{}),
		readDone: make(chan struct{}),
	}
	for _, p := range peers {
		addr, err := net.ResolveUDPAddr("udp", p)
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("udpnet: peer %q: %w", p, err)
		}
		t.peers = append(t.peers, addr)
	}
	if cfg.sockBuf > 0 {
		// Best-effort: the kernel may cap the request; the effective
		// sizes (read back where the platform allows) are what count.
		_ = conn.SetReadBuffer(cfg.sockBuf)
		_ = conn.SetWriteBuffer(cfg.sockBuf)
	}
	t.readBufBytes, t.writeBufBytes = effectiveSocketBuffers(conn, cfg.sockBuf)
	if resolveBatch(cfg) {
		// initMmsg prepares the raw-syscall state; failure (exotic
		// peer address, raw access unavailable) means the portable
		// path, not a construction error.
		if err := t.initMmsg(); err == nil {
			t.batch = true
			t.m.SendBatch = obsv.NewHistogram(obsv.BatchBuckets()...)
			t.m.RecvBatch = obsv.NewHistogram(obsv.BatchBuckets()...)
		}
	}
	if t.batch {
		go t.readLoopMmsg()
	} else {
		go t.readLoop()
	}
	return t, nil
}

// resolveBatch decides the wire path: the explicit option, else
// platform support.
func resolveBatch(cfg config) bool {
	if cfg.batch != nil {
		return *cfg.batch && mmsgSupported
	}
	return mmsgSupported
}

// LocalAddr returns the bound socket address (useful with port 0).
func (t *Transport) LocalAddr() string { return t.conn.LocalAddr().String() }

// BatchSyscalls reports whether the transport selected the batched
// sendmmsg/recvmmsg path at construction.
func (t *Transport) BatchSyscalls() bool { return t.batch }

// SocketBuffers returns the effective kernel socket buffer sizes in
// bytes (read, write); 0 means the OS default was left in place or the
// platform cannot report it.
func (t *Transport) SocketBuffers() (read, write int) {
	return t.readBufBytes, t.writeBufBytes
}

// Stats returns a snapshot of the transport counters.
func (t *Transport) Stats() Stats {
	return Stats{
		Sent:          t.m.Sent.Load(),
		Received:      t.m.Received.Load(),
		Overrun:       t.m.Overrun.Load(),
		ReadErrors:    t.m.ReadErrors.Load(),
		Oversize:      t.m.Oversize.Load(),
		SendErrors:    t.m.SendErrors.Load(),
		BytesSent:     t.m.BytesSent.Load(),
		BytesReceived: t.m.BytesReceived.Load(),
		SendmmsgCalls: t.m.SendmmsgCalls.Load(),
		RecvmmsgCalls: t.m.RecvmmsgCalls.Load(),
	}
}

// Metrics returns the live counters for registry registration; the
// returned pointer stays valid for the transport's lifetime.
func (t *Transport) Metrics() *obsv.TransportMetrics { return &t.m }

// State returns the transport's static configuration for /statez.
func (t *Transport) State() obsv.TransportState {
	return obsv.TransportState{
		BatchSyscalls:    t.batch,
		ReadBufferBytes:  t.readBufBytes,
		WriteBufferBytes: t.writeBufBytes,
	}
}

// Broadcast sends the datagram to every peer — one sendmmsg syscall on
// the batched path, one WriteToUDP per peer otherwise. Oversize
// datagrams are rejected with ErrDatagramTooLarge before touching the
// socket; per-peer send errors are counted in Stats.SendErrors but not
// returned: UDP loss is the protocol's problem to repair.
func (t *Transport) Broadcast(datagram []byte) error {
	if len(datagram) > MaxDatagram {
		t.m.Oversize.Inc()
		return fmt.Errorf("%w: %d bytes > %d", ErrDatagramTooLarge, len(datagram), MaxDatagram)
	}
	select {
	case <-t.stop:
		return errors.New("udpnet: closed")
	default:
	}
	t.sendOne(datagram)
	return nil
}

// BroadcastBatch sends every datagram to every peer, amortizing the
// whole batch over as few syscalls as possible (a single sendmmsg for
// len(datagrams)×len(peers) transmissions on the batched path). Like
// Broadcast, the datagrams are handed to the kernel before returning,
// so the caller may reuse the buffers immediately. Oversize datagrams
// are rejected individually (counted in Stats.Oversize, last rejection
// returned) while the rest still go out.
func (t *Transport) BroadcastBatch(datagrams [][]byte) error {
	select {
	case <-t.stop:
		return errors.New("udpnet: closed")
	default:
	}
	for _, d := range datagrams {
		if len(d) > MaxDatagram {
			// Rare path: route each datagram through Broadcast so
			// oversize entries are counted and reported per datagram.
			var err error
			for _, d := range datagrams {
				if e := t.Broadcast(d); e != nil {
					err = e
				}
			}
			return err
		}
	}
	if len(datagrams) == 0 {
		return nil
	}
	if t.sendMmsgActive() && t.batchMmsg(datagrams) {
		return nil
	}
	for _, d := range datagrams {
		t.sendOne(d)
	}
	return nil
}

// sendOne transmits one datagram to every peer, preferring the batched
// path. Both paths count Sent/BytesSent once per successful peer
// transmission and SendErrors per rejected one.
func (t *Transport) sendOne(datagram []byte) {
	if t.sendMmsgActive() && t.broadcastMmsg(datagram) {
		return
	}
	for _, addr := range t.peers {
		if _, err := t.conn.WriteToUDP(datagram, addr); err == nil {
			t.m.Sent.Inc()
			t.m.BytesSent.Add(uint64(len(datagram)))
		} else {
			t.m.SendErrors.Inc()
		}
	}
}

// Recv returns the inbox channel; it is closed after Close. Delivered
// slices are pool-backed (pdu.GetDatagram): the consumer owns each one
// and should pass it to pdu.PutDatagram once decoded to keep the receive
// path allocation-free.
func (t *Transport) Recv() <-chan []byte { return t.recv }

// Close shuts the socket and inbox down.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.stop)
		t.closeErr = t.conn.Close()
		<-t.readDone
		close(t.recv)
	})
	return t.closeErr
}

func (t *Transport) readLoop() {
	defer close(t.readDone)
	t.readLoopBody()
}

// readLoopBody is the portable per-datagram receive loop; the Linux
// batched read loop falls back to it if the kernel lacks recvmmsg.
func (t *Transport) readLoopBody() {
	for {
		// Read straight into a pooled buffer and hand it to the consumer
		// without copying; the consumer recycles it via pdu.PutDatagram
		// after decoding, so steady state allocates nothing here.
		buf := pdu.GetDatagram()[:MaxDatagram]
		n, _, err := t.conn.ReadFromUDP(buf)
		if err != nil {
			pdu.PutDatagram(buf)
			select {
			case <-t.stop:
				return
			default:
				t.m.ReadErrors.Inc()
				continue
			}
		}
		t.deliverInbound(buf[:n])
	}
}

// deliverInbound hands one pool-backed datagram to the inbox, dropping
// it on overrun — the paper's receive-buffer-overrun loss, repaired by
// the CO protocol's selective retransmission. The datagram is counted
// before the send, so a reader that takes it sees the counters moved;
// the read loop is the inbox's one sender, so room seen here is room
// at the send.
func (t *Transport) deliverInbound(buf []byte) {
	if len(t.recv) == cap(t.recv) {
		t.m.Overrun.Inc()
		pdu.PutDatagram(buf)
		return
	}
	t.m.Received.Inc()
	t.m.BytesReceived.Add(uint64(len(buf)))
	t.recv <- buf
}
