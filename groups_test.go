package cobcast_test

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"cobcast"
	"cobcast/internal/obsv/promtext"
	"cobcast/obsv"
)

// drainGroup collects want messages from one group port.
func drainGroup(t *testing.T, p *cobcast.GroupPort, want int) []cobcast.Message {
	t.Helper()
	var got []cobcast.Message
	deadline := time.After(30 * time.Second)
	for len(got) < want {
		select {
		case m, ok := <-p.Deliveries():
			if !ok {
				t.Fatalf("group %d deliveries closed at %d/%d", p.ID(), len(got), want)
			}
			got = append(got, m)
		case <-deadline:
			t.Fatalf("group %d delivered %d/%d", p.ID(), len(got), want)
		}
	}
	return got
}

// waitDelivered polls until the engine behind stats has handed want
// messages to its port's queue, whether or not anyone reads them.
func waitDelivered(t *testing.T, who string, stats func() cobcast.Stats, want int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for stats().Delivered < uint64(want) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: engine handed over %d of %d messages", who, stats().Delivered, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkGroupStream asserts per-source ordering and the group tag on one
// node's deliveries for one group.
func checkGroupStream(t *testing.T, node int, g cobcast.GroupID, got []cobcast.Message) {
	t.Helper()
	for _, m := range got {
		if m.Group != g {
			t.Errorf("node %d: message tagged group %d on group %d's stream", node, m.Group, g)
		}
	}
	checkSourceOrder(t, fmt.Sprintf("node %d group %d", node, g), got)
}

func TestGroupNameDerivation(t *testing.T) {
	a, b := cobcast.Group("orders"), cobcast.Group("payments")
	if a != cobcast.Group("orders") {
		t.Error("Group is not deterministic")
	}
	if a == b {
		t.Error("distinct names collided (for these two, they should not)")
	}
	if a == cobcast.DefaultGroup || b == cobcast.DefaultGroup {
		t.Error("named group mapped to the default group")
	}
	if cobcast.Group("") == cobcast.DefaultGroup {
		t.Error("empty name mapped to the default group")
	}
}

// TestClusterMultiGroupConverges runs two named groups plus the default
// group over one in-process cluster: every node must deliver every
// group's full stream, per-source ordered, with the right group tags —
// and the per-group streams must not bleed into each other or into the
// default Deliveries channel.
func TestClusterMultiGroupConverges(t *testing.T) {
	const nodes, perGroup = 3, 12
	c, err := cobcast.NewCluster(nodes,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithGroupShards(4),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ga, gb := cobcast.Group("alpha"), cobcast.Group("beta")
	var wg sync.WaitGroup
	results := make([][]cobcast.Message, nodes*3)
	for i := 0; i < nodes; i++ {
		for j, g := range []cobcast.GroupID{ga, gb, cobcast.DefaultGroup} {
			p := c.Group(i, g)
			slot := i*3 + j
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[slot] = drainGroup(t, p, perGroup)
			}()
		}
	}
	for i := 0; i < perGroup; i++ {
		from := i % nodes
		if err := c.Group(from, ga).Broadcast([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Group(from, gb).Broadcast([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := c.Broadcast(from, []byte(fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := 0; i < nodes; i++ {
		for j, g := range []cobcast.GroupID{ga, gb, cobcast.DefaultGroup} {
			got := results[i*3+j]
			checkGroupStream(t, i, g, got)
			prefix := []byte{'a', 'b', 'd'}[j]
			for _, m := range got {
				if len(m.Data) == 0 || m.Data[0] != prefix {
					t.Errorf("node %d group %d: foreign payload %q", i, g, m.Data)
				}
			}
		}
	}

	if _, ok := c.Group(0, ga).Stats(); !ok {
		t.Error("group with traffic reported no stats")
	}
	if s, ok := c.Group(0, cobcast.DefaultGroup).Stats(); !ok || s.Delivered == 0 {
		t.Errorf("default group stats = %+v, %v", s, ok)
	}
}

// TestDefaultGroupPortDelegates pins the byte-compat contract: the
// DefaultGroup port is the node's own API — same delivery channel, same
// Broadcast path — so wrapping existing code in Group(DefaultGroup)
// changes nothing.
func TestDefaultGroupPortDelegates(t *testing.T) {
	c, err := cobcast.NewCluster(2, cobcast.WithDeferredAckInterval(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := c.Group(0, cobcast.DefaultGroup)
	if p.Deliveries() != c.Node(0).Deliveries() {
		t.Fatal("default port has its own delivery channel")
	}
	if p != c.Group(0, cobcast.DefaultGroup) {
		t.Fatal("Group is not idempotent")
	}
	if err := p.Broadcast([]byte("via-port")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-c.Node(1).Deliveries():
		if string(m.Data) != "via-port" || m.Group != cobcast.DefaultGroup {
			t.Errorf("got %q group %d", m.Data, m.Group)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("default-group message not delivered")
	}
}

func TestMaxGroupsBound(t *testing.T) {
	c, err := cobcast.NewCluster(2, cobcast.WithDeferredAckInterval(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for g := 1; g <= cobcast.MaxGroups; g++ {
		if err := c.Group(0, cobcast.GroupID(g)).Broadcast([]byte("g")); err != nil {
			t.Fatalf("group %d: %v", g, err)
		}
	}
	err = c.Group(0, cobcast.MaxGroups+1).Broadcast([]byte("one too many"))
	if !errors.Is(err, cobcast.ErrTooManyGroups) {
		t.Fatalf("group past the bound: error = %v, want ErrTooManyGroups", err)
	}
	// The default group rides outside the bound.
	if err := c.Broadcast(0, []byte("default-still-fine")); err != nil {
		t.Fatal(err)
	}
}

// TestUDPMultiGroupConverges is the wire-path twin of the cluster test:
// group frames ride v3 batch frames over UDP loopback, interleaved with
// default-group v2 traffic in the same socket stream.
func TestUDPMultiGroupConverges(t *testing.T) {
	const n, perGroup = 3, 10
	nodes := newUDPCluster(t, n, cobcast.WithDeferredAckInterval(2*time.Millisecond))
	ga, gb := cobcast.Group("udp-a"), cobcast.Group("udp-b")

	var wg sync.WaitGroup
	results := make([][]cobcast.Message, n*3)
	for i, nd := range nodes {
		for j, g := range []cobcast.GroupID{ga, gb, cobcast.DefaultGroup} {
			p := nd.Group(g)
			slot := i*3 + j
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[slot] = drainGroup(t, p, perGroup)
			}()
		}
	}
	for i := 0; i < perGroup; i++ {
		nd := nodes[i%n]
		if err := nd.Group(ga).Broadcast([]byte(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := nd.Group(gb).Broadcast([]byte(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := nd.Broadcast([]byte(fmt.Sprintf("d%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		for j, g := range []cobcast.GroupID{ga, gb, cobcast.DefaultGroup} {
			checkGroupStream(t, i, g, results[i*3+j])
		}
	}
}

// TestUDPUnknownGroupCounted injects a hand-built v3 frame whose group
// ID is outside the 28-bit range straight into a node's socket. The node
// must drop it whole, count it on the unknown-group counter, and keep
// working.
func TestUDPUnknownGroupCounted(t *testing.T) {
	reg := obsv.NewRegistry()
	tr0, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{"127.0.0.1:1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr0 := tr0.LocalAddr()
	if err := tr0.Close(); err != nil {
		t.Fatal(err)
	}
	tr1, err := cobcast.NewUDPTransport("127.0.0.1:0", []string{addr0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	addr1 := tr1.LocalAddr()
	tr0, err = cobcast.NewUDPTransport(addr0, []string{addr1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := []cobcast.Option{
		cobcast.WithDeferredAckInterval(2 * time.Millisecond),
		cobcast.WithObservability(reg),
	}
	var nodes [2]*cobcast.Node
	for i, tr := range []cobcast.Transport{tr0, tr1} {
		nd, err := cobcast.NewNode(i, 2, tr, opts...)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = nd
		t.Cleanup(func() { nd.Close() })
	}

	// magic 0xC0BF | frame v3 | entry codec 1 | group 0xFFFFFFFF | count 0
	evil := []byte{0xC0, 0xBF, 0x03, 0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0x00, 0x00}
	conn, err := net.Dial("udp", addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(evil); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var buf bytes.Buffer
		if err := reg.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := fams.Value("cobcast_link_unknown_group_frames_total", nil); v >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("unknown-group frame never counted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The node is unharmed: normal traffic still converges.
	if err := nodes[0].Broadcast([]byte("alive")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-nodes[1].Deliveries():
		if string(m.Data) != "alive" {
			t.Errorf("got %q", m.Data)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster wedged after unknown-group frame")
	}
}

// TestGroupStatezSections pins the bounded per-group observability: a
// cluster with multi-group traffic publishes per-group /statez sections
// tagged with their group ID under the owning node's label.
func TestGroupStatezSections(t *testing.T) {
	reg := obsv.NewRegistry()
	c, err := cobcast.NewCluster(2,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithObservability(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	g := cobcast.Group("statez")
	if err := c.Group(0, g).Broadcast([]byte("x")); err != nil {
		t.Fatal(err)
	}
	drainGroup(t, c.Group(0, g), 1)
	drainGroup(t, c.Group(1, g), 1)

	deadline := time.Now().Add(10 * time.Second)
	for {
		found := false
		for _, s := range reg.Statez().Nodes {
			if s.Group == uint32(g) {
				found = true
			}
		}
		if found {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no per-group statez section appeared")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStalledConsumerNeverStallsItsShard: while one port's consumer reads
// nothing, more than four channel-fuls of its group's deliveries — some
// that rode packed PDUs, some that rode alone — queue behind the port's
// channel, and the shard that owns the group (the node's only shard)
// keeps serving a second group. When the consumer resumes it reads every
// (Src, Seq, Index) exactly once, each source's messages in submission
// order.
func TestStalledConsumerNeverStallsItsShard(t *testing.T) {
	const nodes, sources = 3, 2
	c, err := cobcast.NewCluster(nodes,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithWindow(4), // closes under a burst, so backlogs ride packed
		cobcast.WithGroupShards(1),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stalled, lively := cobcast.Group("stalled"), cobcast.Group("lively")
	port := c.Group(0, stalled)
	chanCap := cap(port.Deliveries())
	if chanCap == 0 {
		t.Fatal("the Deliveries channel is unbuffered")
	}
	perSource := 2*chanCap + chanCap/4
	total := sources * perSource // 4.5 channel-fuls

	// Everyone but node 0's stalled port consumes.
	for i := 1; i < nodes; i++ {
		for _, g := range []cobcast.GroupID{stalled, lively} {
			go func(ch <-chan cobcast.Message) {
				for range ch {
				}
			}(c.Group(i, g).Deliveries())
		}
	}
	var senders sync.WaitGroup
	for src := 0; src < sources; src++ {
		senders.Add(1)
		go func(src int) {
			defer senders.Done()
			for k := 0; k < perSource; k++ {
				if err := c.Group(src, stalled).Broadcast([]byte(fmt.Sprintf("%d/%d", src, k))); err != nil {
					t.Errorf("source %d message %d: %v", src, k, err)
					return
				}
			}
		}(src)
	}
	senders.Wait()
	waitDelivered(t, "node 0, consumer stalled", func() cobcast.Stats { st, _ := port.Stats(); return st }, total)
	// The whole stream now waits on node 0's port; its shard is free.
	if err := c.Group(1, lively).Broadcast([]byte("still here")); err != nil {
		t.Fatal(err)
	}
	if got := drainGroup(t, c.Group(0, lively), 1); string(got[0].Data) != "still here" {
		t.Fatalf("second group delivered %q", got[0].Data)
	}

	got := drainGroup(t, port, total)
	checkGroupStream(t, 0, stalled, got)
	type id struct {
		src   int
		seq   uint64
		index int
	}
	seen := make(map[id]bool, total)
	perSeq := make(map[id]int)
	next := make([]int, sources)
	for _, m := range got {
		k := id{m.Src, m.Seq, m.Index}
		if seen[k] {
			t.Fatalf("message %d#%d.%d delivered twice", m.Src, m.Seq, m.Index)
		}
		seen[k] = true
		perSeq[id{src: m.Src, seq: m.Seq}]++
		if want := fmt.Sprintf("%d/%d", m.Src, next[m.Src]); string(m.Data) != want {
			t.Fatalf("source %d: got payload %q where %q was due", m.Src, m.Data, want)
		}
		next[m.Src]++
	}
	alone, packed := 0, 0
	for _, k := range perSeq {
		if k == 1 {
			alone++
		} else {
			packed++
		}
	}
	if alone == 0 || packed == 0 {
		t.Fatalf("%d PDUs carried one message, %d several: the backlog must hold both kinds", alone, packed)
	}
	select {
	case m := <-port.Deliveries():
		t.Fatalf("extra delivery %d#%d.%d %q", m.Src, m.Seq, m.Index, m.Data)
	case <-time.After(20 * time.Millisecond):
	}
}
