package experiments

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cobcast/internal/pdu"
	"cobcast/internal/udpnet"
)

// SyscallRow is one (cluster size, wire shape) cell of the wire-path
// experiments [E9, E13].
type SyscallRow struct {
	N int
	// Batch is PDUs per frame (one frame per datagram); Mmsg selects
	// the sendmmsg/recvmmsg path over per-datagram sendto/recvfrom.
	Batch int
	Mmsg  bool
	// PDUs is the number of PDU broadcasts the sender issued.
	PDUs int
	// SendSyscalls and RecvSyscalls count the syscalls that carried
	// them: sendto/recvfrom calls on the portable path, sendmmsg/
	// recvmmsg calls on the batched path (receive side summed over the
	// n-1 receivers).
	SendSyscalls uint64
	RecvSyscalls uint64
	// SyscallsPerPDU is (send+recv syscalls) / delivered PDU copies —
	// the per-PDU kernel-crossing cost the batching amortizes.
	SyscallsPerPDU float64
	// DeliveredKpps is decoded PDU copies per second of send time;
	// DeliveredFrac is the fraction of PDU copies that survived the
	// lossy loopback path.
	DeliveredKpps float64
	DeliveredFrac float64
}

// SyscallAmortization replays the Fig. 8-shaped blast workload — one
// sender, frames×batch PDUs in frames staged four deep, n-1 decoding
// receivers — over a real UDP loopback mesh, once per wire shape, and
// reports how many syscalls carried each PDU. "Per-datagram" is the
// seed's wire behaviour, one PDU per datagram (E9's baseline); framing
// batch PDUs per datagram divides the portable path's one syscall per
// datagram per peer by batch (E9); on the mmsg path one staged flush
// toward all peers is a single sendmmsg and receivers drain a ring per
// recvmmsg, so syscalls/PDU falls by a further ~4×peers on the send
// side (E13).
func SyscallAmortization(ns []int, frames, batch int) ([]SyscallRow, error) {
	var rows []SyscallRow
	for _, n := range ns {
		for _, shape := range []struct {
			frames, batch int
			mmsg          bool
		}{{frames * batch, 1, false}, {frames, batch, false}, {frames, batch, true}} {
			row, err := syscallCell(n, shape.frames, shape.batch, shape.mmsg)
			if err != nil {
				return nil, err
			}
			if row == nil {
				continue // batched path unsupported on this platform
			}
			rows = append(rows, *row)
		}
	}
	return rows, nil
}

func syscallCell(n, frames, batch int, mmsg bool) (*SyscallRow, error) {
	trs, err := udpMesh(n, udpnet.WithBatchSyscalls(mmsg))
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	if mmsg && !trs[0].BatchSyscalls() {
		return nil, nil
	}

	var delivered atomic.Uint64
	var wg sync.WaitGroup
	for _, tr := range trs[1:] {
		wg.Add(1)
		go func(tr *udpnet.Transport) {
			defer wg.Done()
			var dec pdu.FrameDecoder
			var scratch pdu.PDU
			for raw := range tr.Recv() {
				if dec.Reset(raw) == nil {
					for {
						ok, err := dec.Next(&scratch)
						if !ok || err != nil {
							break
						}
						delivered.Add(1)
					}
				}
				pdu.PutDatagram(raw)
			}
		}(tr)
	}

	const group = 4 // frames staged per flush, as the wire link stages them
	p := &pdu.PDU{
		Kind: pdu.KindData, CID: 1, Src: 0, SEQ: 1,
		ACK: make([]pdu.Seq, n), LSrc: pdu.NoEntity,
		Data: make([]byte, 64),
	}
	var enc pdu.FrameEncoder
	bufs := make([][]byte, group)
	for k := range bufs {
		bufs[k] = make([]byte, 0, udpnet.MaxDatagram)
	}
	staged := make([][]byte, 0, group)
	pdus := 0
	start := time.Now()
	for f := 0; f < frames; {
		staged = staged[:0]
		for g := 0; g < group && f < frames; g, f = g+1, f+1 {
			enc.BeginV2(bufs[g][:0], nil) // full stamps: a lost datagram strands no delta
			for j := 0; j < batch; j++ {
				p.SEQ = pdu.Seq(pdus + 1)
				if err := enc.Append(p); err != nil {
					return nil, err
				}
				pdus++
			}
			bufs[g] = enc.Bytes()
			staged = append(staged, bufs[g])
		}
		if err := trs[0].BroadcastBatch(staged); err != nil {
			return nil, err
		}
	}
	// End-to-end clock: wait for the receivers to decode everything, so
	// delivered kpps measures drained throughput rather than how fast
	// datagrams can be parked in kernel/inbox buffers. Lost datagrams
	// (overrun under the unthrottled blast) never arrive, so the clock
	// stops at the last delivery progress instead of a timeout.
	want := uint64(pdus) * uint64(n-1)
	last, lastAt := delivered.Load(), time.Now()
	for last < want && time.Since(lastAt) < 500*time.Millisecond {
		time.Sleep(200 * time.Microsecond)
		if cur := delivered.Load(); cur > last {
			last, lastAt = cur, time.Now()
		}
	}
	elapsed := lastAt.Sub(start)

	sent := trs[0].Stats()
	sendCalls := sent.Sent + sent.SendErrors // one sendto each
	if mmsg {
		sendCalls = sent.SendmmsgCalls
	}
	var recvCalls uint64
	for _, tr := range trs[1:] {
		s := tr.Stats()
		if mmsg {
			recvCalls += s.RecvmmsgCalls
		} else {
			recvCalls += s.Received + s.ReadErrors
		}
		tr.Close()
	}
	trs[0].Close()
	wg.Wait()

	copies := delivered.Load()
	if copies == 0 {
		return nil, fmt.Errorf("syscalls: n=%d mmsg=%v delivered nothing", n, mmsg)
	}
	return &SyscallRow{
		N:              n,
		Batch:          batch,
		Mmsg:           mmsg,
		PDUs:           pdus,
		SendSyscalls:   sendCalls,
		RecvSyscalls:   recvCalls,
		SyscallsPerPDU: float64(sendCalls+recvCalls) / float64(copies),
		DeliveredKpps:  float64(copies) / elapsed.Seconds() / 1000,
		DeliveredFrac:  float64(copies) / float64(uint64(pdus)*uint64(n-1)),
	}, nil
}

// udpMesh binds n loopback transports into a full mesh with large
// inboxes (discover ephemeral ports, then re-bind with peer lists).
func udpMesh(n int, opts ...udpnet.Option) ([]*udpnet.Transport, error) {
	addrs := make([]string, n)
	for i := range addrs {
		tr, err := udpnet.New("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			return nil, err
		}
		addrs[i] = tr.LocalAddr()
		if err := tr.Close(); err != nil {
			return nil, err
		}
	}
	trs := make([]*udpnet.Transport, 0, n)
	for i := 0; i < n; i++ {
		var peers []string
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		tr, err := udpnet.New(addrs[i], peers, 8192, opts...)
		if err != nil {
			for _, t := range trs {
				t.Close()
			}
			return nil, fmt.Errorf("syscalls: rebind %d: %w", i, err)
		}
		trs = append(trs, tr)
	}
	return trs, nil
}
