package cobcast

import "cobcast/internal/udpnet"

// MaxDatagram is the largest datagram the UDP transport accepts. A
// datagram carries one batch frame whose size grows with the number of
// batched PDUs and O(n) per PDU via the ACK vector, so payloads must
// stay comfortably below this bound. The node's link layer flushes a
// frame before it would cross MaxDatagram.
const MaxDatagram = udpnet.MaxDatagram

// ErrDatagramTooLarge is returned by UDPTransport.Broadcast for
// datagrams over MaxDatagram; rejections are counted in
// TransportStats.Oversize.
var ErrDatagramTooLarge = udpnet.ErrDatagramTooLarge

// TransportStats counts transport-level events on a UDPTransport, in
// datagrams (batch frames, not PDUs) and bytes. Overrun is the paper's
// receive-buffer-overrun loss, repaired by selective retransmission.
type TransportStats = udpnet.Stats

// TransportOption configures a UDPTransport at creation.
type TransportOption = udpnet.Option

// WithBatchSyscalls forces the batched-syscall wire path on or off,
// overriding the platform default (on where sendmmsg/recvmmsg exist, currently Linux).
// Forcing it on where unsupported fails NewUDPTransport; if the running
// kernel later rejects the syscalls, the transport falls back to the
// per-datagram path at runtime without losing data.
func WithBatchSyscalls(on bool) TransportOption { return udpnet.WithBatchSyscalls(on) }

// WithSocketBuffers requests SO_RCVBUF/SO_SNDBUF of the given size
// (default 4 MiB; <= 0 keeps the OS defaults). The kernel may clamp the
// request; the effective sizes appear in /statez and SocketBuffers.
// Larger receive buffers absorb bursts the inbox would otherwise see as
// Overrun — but kernel-level drops from an undersized SO_RCVBUF are
// invisible to any counter, so size this above the expected burst.
func WithSocketBuffers(bytes int) TransportOption { return udpnet.WithSocketBuffers(bytes) }

// UDPTransport is a Transport (and BatchTransport) over UDP, substituting
// for the paper's Ethernet testbed: datagrams may be lost, duplicated or
// reordered across senders, while each sender→receiver path stays ordered
// on LAN and loopback in practice (the MC service contract). NewNode
// registers its Metrics and State with a WithObservability registry.
type UDPTransport = udpnet.Transport

var _ BatchTransport = (*UDPTransport)(nil)

// NewUDPTransport binds a UDP socket on local (for example
// "127.0.0.1:9001", or ":0" for an ephemeral port) that broadcasts to the
// given peer addresses; pass it to NewNode. inboxCap bounds the receive
// queue (0 means 1024). Options select the wire path and socket buffer
// sizes; by default the batched sendmmsg/recvmmsg path is used where the
// platform supports it.
func NewUDPTransport(local string, peers []string, inboxCap int, opts ...TransportOption) (*UDPTransport, error) {
	return udpnet.New(local, peers, inboxCap, opts...)
}
