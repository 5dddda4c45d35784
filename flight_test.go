package cobcast_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cobcast"
	"cobcast/internal/cospan"
	"cobcast/internal/flight"
	"cobcast/internal/trace"
	"cobcast/obsv"
)

// TestTracezLiveScrape hammers /tracez while a lossy cluster is under
// load. Under -race this is the seqlock check for the flight rings: the
// shard loops (and producer goroutines) record concurrently with the
// scrapers' snapshots, and every scrape must decode to a consistent
// document. One non-default group rides along: its engines run the same
// loop, so their "<id>/g<N>" rings must carry the wire events too.
func TestTracezLiveScrape(t *testing.T) {
	const (
		nodes = 3
		msgs  = 120
	)
	reg := obsv.NewRegistry()
	cluster, err := cobcast.NewCluster(nodes,
		cobcast.WithLossRate(0.1),
		cobcast.WithSeed(11),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
		cobcast.WithObservability(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()

	srv, err := obsv.Serve(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	scraperErr := make(chan error, 1)
	go func() {
		defer close(scraperErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get("http://" + srv.Addr() + "/tracez")
			if err != nil {
				scraperErr <- err
				return
			}
			var doc obsv.Tracez
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				scraperErr <- fmt.Errorf("tracez decode: %w", err)
				return
			}
			for _, nf := range doc.Nodes {
				if len(nf.Events) > nf.Capacity {
					scraperErr <- fmt.Errorf("node %s: %d events over capacity %d", nf.Node, len(nf.Events), nf.Capacity)
					return
				}
				for _, ev := range nf.Events {
					if flight.TypeFromName(ev.TypeName) == 0 {
						scraperErr <- fmt.Errorf("node %s: unknown event type %q", nf.Node, ev.TypeName)
						return
					}
				}
			}
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < nodes; i++ {
		nd := cluster.Node(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			deadline := time.After(time.Minute)
			for seen < msgs {
				select {
				case _, ok := <-nd.Deliveries():
					if !ok {
						t.Error("deliveries closed early")
						return
					}
					seen++
				case <-deadline:
					t.Errorf("node %d: timeout at %d/%d", nd.ID(), seen, msgs)
					return
				}
			}
		}()
	}
	side := cobcast.Group("side")
	for i := 0; i < nodes; i++ {
		port := cluster.Group(i, side)
		wg.Add(1)
		go func() {
			defer wg.Done()
			select {
			case <-port.Deliveries():
			case <-time.After(time.Minute):
				t.Errorf("group %d: no delivery", side)
			}
		}()
	}
	if err := cluster.Group(0, side).Broadcast([]byte("flight")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < msgs; i++ {
		if err := cluster.Broadcast(i%nodes, []byte("flight")); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(stop)
	if err := <-scraperErr; err != nil {
		t.Fatal(err)
	}

	// The final dump must hold every node's ring with the full lifecycle
	// vocabulary present somewhere.
	doc := reg.Tracez()
	if len(doc.Nodes) != 2*nodes {
		t.Fatalf("tracez has %d rings, want %d (one per node and group)", len(doc.Nodes), 2*nodes)
	}
	seenTypes := map[string]bool{}
	for _, nf := range doc.Nodes {
		if strings.HasSuffix(nf.Node, fmt.Sprintf("/g%d", side)) {
			groupTypes := map[string]bool{}
			for _, ev := range nf.Events {
				groupTypes[ev.TypeName] = true
			}
			if !groupTypes["wire-in"] || !groupTypes["wire-out"] {
				t.Errorf("group ring %s holds wire-in=%v wire-out=%v, want both",
					nf.Node, groupTypes["wire-in"], groupTypes["wire-out"])
			}
			continue
		}
		if nf.Recorded == 0 {
			t.Errorf("node %s recorded nothing", nf.Node)
		}
		if nf.EpochUnixNano == 0 {
			t.Errorf("node %s has no wall-clock epoch", nf.Node)
		}
		for _, ev := range nf.Events {
			seenTypes[ev.TypeName] = true
		}
	}
	for _, want := range []string{"submit", "sequence", "wire-out", "wire-in", "accept", "commit", "deliver"} {
		if !seenTypes[want] {
			t.Errorf("no %q event recorded anywhere", want)
		}
	}
}

// lossyTransport drops a fraction of outgoing datagrams before they
// reach the UDP socket. It deliberately hides the transport's batch
// extension so every datagram passes through the dropping Broadcast.
type lossyTransport struct {
	cobcast.Transport
	mu  sync.Mutex
	rng *rand.Rand
	p   float64
}

func (l *lossyTransport) Broadcast(d []byte) error {
	l.mu.Lock()
	drop := l.rng.Float64() < l.p
	l.mu.Unlock()
	if drop {
		return nil
	}
	return l.Transport.Broadcast(d)
}

// TestTracezUDPLossySpans is the tracing acceptance path: a 3-node
// cluster over real UDP loopback with 20% send loss, scraped over HTTP
// exactly as `cotrace` does, assembled into a Chrome trace. The run must
// show at least one retransmitted message, and every message must have
// a complete lifecycle span on every node with causal flow arrows from
// its origin. The same rings, sized not to wrap, must then pass the
// Section 2.2 checker `cotrace check` runs.
func TestTracezUDPLossySpans(t *testing.T) {
	const n = 3
	const msgs = 12
	regs := make([]*obsv.Registry, n)

	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tr, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
		if err != nil {
			t.Fatalf("transport %d: %v", i, err)
		}
		addrs[i] = tr.LocalAddr()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*cobcast.Node, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		var peers []string
		for j := 0; j < n; j++ {
			if j != i {
				peers = append(peers, addrs[j])
			}
		}
		tr, err := cobcast.NewUDPTransport(addrs[i], peers, 0)
		if err != nil {
			t.Fatalf("rebind %d: %v", i, err)
		}
		lossy := &lossyTransport{Transport: tr, rng: rand.New(rand.NewSource(int64(i + 1))), p: 0.2}
		regs[i] = obsv.NewRegistry()
		nd, err := cobcast.NewNode(i, n, lossy,
			cobcast.WithDeferredAckInterval(2*time.Millisecond),
			cobcast.WithRetransmitTimeout(8*time.Millisecond),
			cobcast.WithObservability(regs[i]),
			cobcast.WithFlightRecorder(1<<16),
		)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = nd
		t.Cleanup(func() { nd.Close() })
		srv, err := obsv.Serve(regs[i], "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		urls[i] = "http://" + srv.Addr()
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		nd := nodes[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			deadline := time.After(time.Minute)
			for seen < msgs {
				select {
				case <-nd.Deliveries():
					seen++
				case <-deadline:
					t.Errorf("node %d delivered %d/%d (stats %+v)", nd.ID(), seen, msgs, nd.Stats())
					return
				}
			}
		}()
	}
	for i := 0; i < msgs; i++ {
		if err := nodes[i%n].Broadcast([]byte(fmt.Sprintf("lossy-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	var retx uint64
	for _, nd := range nodes {
		retx += nd.Stats().Retransmitted
	}
	if retx == 0 {
		t.Fatal("20% loss produced no retransmissions; the lifecycle test would be vacuous")
	}

	// Scrape each endpoint as cotrace does and merge, once the cluster
	// has gone quiet: two scrapes in a row recording nothing new. Rings
	// cut at different moments could hold an accept whose send one
	// scraped earlier does not.
	var dumps []obsv.NodeFlight
	for last, quiet := uint64(0), false; !quiet; {
		time.Sleep(50 * time.Millisecond)
		dumps = dumps[:0]
		var recorded uint64
		for _, u := range urls {
			resp, err := http.Get(u + "/tracez")
			if err != nil {
				t.Fatal(err)
			}
			var doc obsv.Tracez
			err = json.NewDecoder(resp.Body).Decode(&doc)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			for _, nf := range doc.Nodes {
				recorded += nf.Recorded
			}
			dumps = append(dumps, doc.Nodes...)
		}
		quiet, last = recorded == last, recorded
	}
	if len(dumps) != n {
		t.Fatalf("merged %d rings, want %d", len(dumps), n)
	}

	events := cospan.Assemble(dumps)
	slices := map[string]map[int]bool{} // msg -> pids with a DATA slice
	flows := map[string]int{}
	retEvents := 0
	for _, ev := range events {
		switch ev.Ph {
		case "X":
			if ev.Args["kind"] == "DATA" {
				if slices[ev.Name] == nil {
					slices[ev.Name] = map[int]bool{}
				}
				slices[ev.Name][ev.Pid] = true
			}
		case "f":
			flows[ev.Name]++
		case "i":
			retEvents++
		}
	}
	full := 0
	for name, pids := range slices {
		if len(pids) == n {
			full++
		}
		if flows[name] < n-1 {
			t.Errorf("message %s has %d flow arrows, want >= %d", name, flows[name], n-1)
		}
	}
	if full < msgs {
		t.Errorf("only %d messages span all %d nodes, want %d", full, n, msgs)
	}

	as, err := trace.AnalyzeDumps(dumps)
	if err != nil {
		t.Fatal(err)
	}
	if err := as[0].CheckCOService(); err != nil {
		t.Errorf("scraped rings violate the CO service: %v", err)
	}
	if s := as[0].Summary(); s.Retransmits == 0 || s.DataSends == 0 {
		t.Errorf("checked %+v, want DATA sends and a retransmission", s)
	}
}

// TestStallAnalyzerNamesIsolatedPeerLive isolates one node of a live
// cluster mid-run and asserts the stall analyzer on /statez names the
// stuck message and the exact missing-ACK peer.
func TestStallAnalyzerNamesIsolatedPeerLive(t *testing.T) {
	const n = 3
	const isolated = 2
	reg := obsv.NewRegistry()
	cluster, err := cobcast.NewCluster(n,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
		cobcast.WithObservability(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := 0; i < n; i++ {
		nd := cluster.Node(i)
		go func() {
			for range nd.Deliveries() {
			}
		}()
	}

	cluster.Isolate(isolated)
	if err := cluster.Broadcast(0, []byte("stuck")); err != nil {
		t.Fatal(err)
	}

	deadline := time.After(30 * time.Second)
	for {
		stalls := reg.StallReport()
		var hit *obsv.Stall
		for i := range stalls {
			if stalls[i].Node == "0" && stalls[i].Msg == "s0#1" {
				hit = &stalls[i]
				break
			}
		}
		if hit != nil {
			want := strconv.Itoa(isolated)
			found := false
			for _, w := range hit.WaitingOn {
				if strconv.Itoa(w) == want {
					found = true
				}
			}
			if !found {
				t.Fatalf("stall %+v does not name isolated peer %d", *hit, isolated)
			}
			// The verdict also appears on the /statez document itself.
			statez := reg.Statez()
			if len(statez.Stalls) == 0 {
				t.Fatal("statez document carries no stall verdicts")
			}
			return
		}
		select {
		case <-deadline:
			t.Fatalf("no stall verdict for s0#1 on node 0; report: %+v", stalls)
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestBackpressureEventsInSubmittingGroupRing: a producer blocked or
// shed on one group's exhausted budget is recorded in that group's own
// flight ring ("0/g<N>" on /tracez), never in the default group's.
func TestBackpressureEventsInSubmittingGroupRing(t *testing.T) {
	for _, tc := range []struct {
		mode cobcast.BackpressureMode
		ev   flight.EventType
	}{
		{cobcast.BackpressureShed, flight.EvShed},
		{cobcast.BackpressureBlock, flight.EvBlock},
	} {
		t.Run(tc.ev.String(), func(t *testing.T) {
			reg := obsv.NewRegistry()
			c, err := cobcast.NewCluster(2, overloadOptions(
				cobcast.WithBackpressure(tc.mode), cobcast.WithObservability(reg))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Isolate(1)
			hot := c.Group(0, 7)
			send := func(b []byte) error {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				defer cancel()
				return hot.BroadcastContext(ctx, b)
			}
			want := cobcast.ErrOverBudget
			if tc.mode == cobcast.BackpressureBlock {
				want = context.DeadlineExceeded
			}
			saturate(t, send, make([]byte, 1024), 100000, want)
			count := map[string]int{}
			for _, nf := range reg.Tracez().Nodes {
				for _, ev := range nf.Events {
					if ev.Type == tc.ev {
						count[nf.Node]++
					}
				}
			}
			if count["0/g7"] == 0 || len(count) != 1 {
				t.Fatalf("%s events per ring: %v, want them in 0/g7 alone", tc.ev, count)
			}
		})
	}
}
