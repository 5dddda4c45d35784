// Command codemo runs a live CO-protocol cluster and shows every node
// delivering the same causally ordered stream, optionally under injected
// loss. Each line of input on stdin is broadcast from a rotating sender;
// with -auto N the demo broadcasts N messages by itself.
//
//	codemo -n 4 -loss 0.2 -auto 12
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sync"
	"time"

	"cobcast"
)

func main() {
	var (
		n     = flag.Int("n", 3, "cluster size")
		loss  = flag.Float64("loss", 0, "injected network loss rate [0,1)")
		seed  = flag.Int64("seed", 1, "loss RNG seed")
		auto  = flag.Int("auto", 0, "broadcast this many demo messages and exit (0 = read stdin)")
		delay = flag.Duration("delay", 0, "network propagation delay")
	)
	flag.Parse()
	if err := run(*n, *loss, *seed, *auto, *delay); err != nil {
		fmt.Fprintln(os.Stderr, "codemo:", err)
		os.Exit(1)
	}
}

func run(n int, loss float64, seed int64, auto int, delay time.Duration) error {
	cluster, err := cobcast.NewCluster(n,
		cobcast.WithLossRate(loss),
		cobcast.WithSeed(seed),
		cobcast.WithNetworkDelay(delay),
		cobcast.WithDeferredAckInterval(2*time.Millisecond),
	)
	if err != nil {
		return err
	}
	defer cluster.Close()

	var (
		mu     sync.Mutex
		counts = make([]int, n)
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range cluster.Node(i).Deliveries() {
				mu.Lock()
				counts[i]++
				fmt.Printf("node %d delivered #%d: [from %d seq %d.%d] %q\n",
					i, counts[i], m.Src, m.Seq, m.Index, m.Data)
				mu.Unlock()
			}
		}()
	}

	total := 0
	if auto > 0 {
		for i := 0; i < auto; i++ {
			msg := fmt.Sprintf("demo message %d", i)
			if err := cluster.Broadcast(i%n, []byte(msg)); err != nil {
				return err
			}
			total++
		}
	} else {
		fmt.Printf("cluster of %d nodes up (loss %.0f%%); type lines to broadcast, EOF to quit\n",
			n, loss*100)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if err := cluster.Broadcast(total%n, sc.Bytes()); err != nil {
				return err
			}
			total++
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}

	// Wait for every node to deliver everything.
	deadline := time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		done := true
		for _, c := range counts {
			if c < total {
				done = false
			}
		}
		mu.Unlock()
		if done {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("timeout: %v of %d delivered", counts, total)
		}
		time.Sleep(5 * time.Millisecond)
	}
	cluster.Close()
	wg.Wait()

	fmt.Println("\nper-node protocol statistics:")
	for i := 0; i < n; i++ {
		s := cluster.Node(i).Stats()
		fmt.Printf("  node %d: data=%d sync=%d ackonly=%d ret=%d retx=%d delivered=%d\n",
			i, s.DataSent, s.SyncSent, s.AckOnlySent, s.RetSent, s.Retransmitted, s.Delivered)
	}
	ns := cluster.NetworkStats()
	fmt.Printf("network: sent=%d delivered=%d lost=%d overrun=%d\n",
		ns.Sent, ns.Delivered, ns.DroppedLoss, ns.DroppedOverrun)
	return nil
}
