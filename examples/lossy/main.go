// Lossy: a close-up of the protocol's failure detection and selective
// retransmission (Section 4.3 of the paper). A four-node cluster pushes a
// file-transfer-like stream through a network that drops a quarter of all
// PDUs; the example reports how many PDUs were lost, how many RET
// requests were issued, and how many PDUs were selectively rebroadcast —
// and verifies every node still delivered the full stream in per-source
// order.
//
// The cluster runs with live observability attached (WithObservability):
// while it runs, /metrics, /statez and /debug/pprof/ are served on an
// ephemeral local port, and the closing report quotes the registry's own
// loss-detection counters.
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"strings"
	"sync"
	"time"

	"cobcast"
	"cobcast/obsv"
)

func main() {
	const (
		nodes    = 4
		perNode  = 25
		lossRate = 0.25
	)
	reg := obsv.NewRegistry()
	cluster, err := cobcast.NewCluster(nodes,
		cobcast.WithLossRate(lossRate),
		cobcast.WithSeed(99),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(4*time.Millisecond),
		cobcast.WithWindow(8),
		cobcast.WithObservability(reg),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	srv, err := obsv.Serve(reg, "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("observability: http://%s/metrics (also /statez, /debug/pprof/)\n", srv.Addr())

	total := nodes * perNode
	var wg sync.WaitGroup
	orders := make([][]cobcast.Message, nodes)
	for i := 0; i < nodes; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range cluster.Node(i).Deliveries() {
				orders[i] = append(orders[i], m)
				if len(orders[i]) == total {
					return
				}
			}
		}()
	}

	start := time.Now()
	for seq := 0; seq < perNode; seq++ {
		for n := 0; n < nodes; n++ {
			payload := fmt.Sprintf("chunk %d from node %d", seq, n)
			if err := cluster.Broadcast(n, []byte(payload)); err != nil {
				log.Fatal(err)
			}
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Verify exactly-once, per-source-ordered delivery at every node.
	for i := 0; i < nodes; i++ {
		// (Seq, Index) orders one source's messages: a backlog that
		// rode one packed PDU shares its Seq.
		last := make(map[int]cobcast.Message)
		for _, m := range orders[i] {
			if prev, ok := last[m.Src]; ok && (m.Seq < prev.Seq || (m.Seq == prev.Seq && m.Index <= prev.Index)) {
				log.Fatalf("node %d delivered source %d out of order", i, m.Src)
			}
			last[m.Src] = m
		}
		if len(orders[i]) != total {
			log.Fatalf("node %d delivered %d/%d", i, len(orders[i]), total)
		}
	}

	net := cluster.NetworkStats()
	var retReq, retx, parked uint64
	for i := 0; i < nodes; i++ {
		s := cluster.Node(i).Stats()
		retReq += s.RetSent
		retx += s.Retransmitted
		parked += s.Parked
	}
	fmt.Printf("delivered %d messages to every node in %v despite %.0f%% loss\n",
		total, elapsed.Round(time.Millisecond), lossRate*100)
	fmt.Printf("network:   %d PDUs sent, %d dropped by the lossy network\n",
		net.Sent, net.DroppedLoss)
	fmt.Printf("recovery:  %d gaps detected (RET requests), %d PDUs selectively rebroadcast,\n",
		retReq, retx)
	fmt.Printf("           %d out-of-order PDUs parked and replayed in order\n", parked)
	fmt.Println("every node delivered the complete stream in per-source order")

	// The same story as told by the /metrics endpoint: quote the
	// loss-detection counter family from the registry's exposition.
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Println("as seen on /metrics:")
	for sc := bufio.NewScanner(&buf); sc.Scan(); {
		if strings.HasPrefix(sc.Text(), "cobcast_loss_detections_total") {
			fmt.Println("  " + sc.Text())
		}
	}
}
