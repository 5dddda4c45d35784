package cobcast_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cobcast"
	"cobcast/obsv"
)

// drainNode discards a node's deliveries for the test's lifetime so the
// unbounded delivery queue does not hide what the protocol logs retain.
func drainNode(t *testing.T, nd *cobcast.Node) {
	t.Helper()
	done := make(chan struct{})
	t.Cleanup(func() { <-done })
	go func() {
		defer close(done)
		for range nd.Deliveries() {
		}
	}()
}

// ledgerSnapshot finds node label's snapshot in the registry's /statez
// document; ok is false when the node produced no snapshot this scrape.
func ledgerSnapshot(reg *obsv.Registry, label string) (obsv.StateSnapshot, bool) {
	for _, s := range reg.Statez().Nodes {
		if s.Node == label {
			return s, true
		}
	}
	return obsv.StateSnapshot{}, false
}

// overloadOptions is the shared overload scenario: a tiny budget, a fast
// confirmation cycle, and a suspicion timer long enough that the stalled
// peer stays un-evicted for the saturation phase of each test.
func overloadOptions(extra ...cobcast.Option) []cobcast.Option {
	opts := []cobcast.Option{
		cobcast.WithMemoryBudget(8 << 10),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(2 * time.Millisecond),
	}
	return append(opts, extra...)
}

// saturate broadcasts payloads until the send errors with want (nil
// means "submit n messages, all must succeed"). It returns the number
// of successful submissions.
func saturate(t *testing.T, send func([]byte) error, payload []byte, max int, want error) int {
	t.Helper()
	sent := 0
	for i := 0; i < max; i++ {
		err := send(payload)
		if err == nil {
			sent++
			continue
		}
		if want != nil && errors.Is(err, want) {
			return sent
		}
		t.Fatalf("broadcast %d: %v", i, err)
	}
	if want != nil {
		t.Fatalf("budget never exhausted after %d sends", max)
	}
	return sent
}

// TestBroadcastContextCancelUnblocks pins the block-mode contract:
// a producer blocked on an exhausted memory budget is unblocked by
// context cancellation and gets ctx.Err(), not a protocol error.
func TestBroadcastContextCancelUnblocks(t *testing.T) {
	reg := obsv.NewRegistry()
	c, err := cobcast.NewCluster(2, overloadOptions(cobcast.WithObservability(reg))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	drainNode(t, c.Node(0))
	drainNode(t, c.Node(1))
	c.Isolate(1) // peer stalls: nothing node 0 sends is ever confirmed

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	payload := make([]byte, 1024)
	blocked := make(chan error, 1)
	go func() {
		for {
			if err := c.Node(0).BroadcastContext(ctx, payload); err != nil {
				blocked <- err
				return
			}
		}
	}()

	// Wait until the producer is observably blocked at the budget (the
	// blocked counter rides the ledger, scraped via /statez).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s, ok := ledgerSnapshot(reg, "0"); ok && s.BackpressureBlocked > 0 {
			if s.LedgerBudget == 0 {
				t.Fatal("snapshot carries no ledger budget")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("producer never blocked at the memory budget")
		}
		time.Sleep(time.Millisecond)
	}

	cancel()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("blocked producer returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not unblock the producer")
	}
}

// TestShedModeReturnsTypedError pins shed mode: an exhausted budget
// fails Broadcast with ErrOverBudget, and — because shedding happens
// strictly before sequencing — the protocol state is intact: once the
// stalled peer heals, everything already sequenced plus a fresh message
// still delivers everywhere in order.
func TestShedModeReturnsTypedError(t *testing.T) {
	c, err := cobcast.NewCluster(2, overloadOptions(
		cobcast.WithBackpressure(cobcast.BackpressureShed))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Isolate(1)

	payload := make([]byte, 1024)
	sent := saturate(t, c.Node(0).Broadcast, payload, 100000, cobcast.ErrOverBudget)
	if sent == 0 {
		t.Fatal("no submission succeeded before the budget tripped")
	}

	// Heal the peer; the shed submissions were never sequenced, so the
	// cluster must converge on exactly the accepted ones plus one more.
	c.Rejoin(1)
	if err := c.Node(0).WaitIdle(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Broadcast([]byte("after-shed")); err != nil {
		t.Fatalf("broadcast after drain: %v", err)
	}
	got := collectAll(t, c, sent+1)
	for i, ms := range got {
		for j, m := range ms {
			if m.Src != 0 {
				t.Fatalf("node %d message %d from unexpected source %d", i, j, m.Src)
			}
		}
		if last := ms[len(ms)-1]; string(last.Data) != "after-shed" {
			t.Fatalf("node %d final delivery = %q, want the post-shed message", i, last.Data)
		}
		// The shed backlog rode packed: messages share a Seq there, and
		// Index orders them inside it.
		checkSourceOrder(t, fmt.Sprintf("node %d", i), ms)
	}
}

// TestPerGroupBudgetsUnderShards pins that budgets compose with the
// sharded group runtime: exhausting one group's budget sheds only that
// group's producers, while sibling groups (their own ledgers) and the
// default group keep accepting.
func TestPerGroupBudgetsUnderShards(t *testing.T) {
	cases := []struct {
		name   string
		shards int
	}{
		{"one-shard", 1},
		{"four-shards", 4},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, err := cobcast.NewCluster(2, overloadOptions(
				cobcast.WithBackpressure(cobcast.BackpressureShed),
				cobcast.WithGroupShards(tc.shards))...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.Isolate(1)

			hot := c.Group(0, cobcast.Group("hot"))
			cold := c.Group(0, cobcast.Group("cold"))
			payload := make([]byte, 1024)
			if got := saturate(t, hot.Broadcast, payload, 100000, cobcast.ErrOverBudget); got == 0 {
				t.Fatal("hot group accepted nothing before shedding")
			}

			// The hot group now sheds immediately…
			if err := hot.Broadcast(payload); !errors.Is(err, cobcast.ErrOverBudget) {
				t.Fatalf("hot group: %v, want ErrOverBudget", err)
			}
			// …while the cold group and the default group, each with
			// their own ledger, still admit.
			for i := 0; i < 4; i++ {
				if err := cold.Broadcast([]byte(fmt.Sprintf("cold-%d", i))); err != nil {
					t.Fatalf("cold group broadcast %d: %v", i, err)
				}
				if err := c.Node(0).Broadcast([]byte(fmt.Sprintf("default-%d", i))); err != nil {
					t.Fatalf("default group broadcast %d: %v", i, err)
				}
			}
		})
	}
}
