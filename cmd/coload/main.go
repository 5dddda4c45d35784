// Command coload is a load generator and soak tester for the CO protocol:
// it drives a real-time in-process cluster at a configured rate and
// reports delivery throughput, end-to-end latency percentiles, and
// protocol counters.
//
//	coload -n 4 -msgs 2000 -rate 5000 -size 128 -loss 0.05
//	coload -n 3 -msgs 500 -total        # total-order mode
//	coload -n 4 -msgs 4000 -groups 8    # spread over 8 ordered groups
//	coload -n 4 -msgs 600000 -obsv 127.0.0.1:9090   # 5 min at the default rate: watch /metrics live
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cobcast"
	"cobcast/internal/experiments"
	"cobcast/obsv"
)

func main() {
	var (
		n      = flag.Int("n", 4, "cluster size")
		msgs   = flag.Int("msgs", 1000, "total messages to broadcast")
		rate   = flag.Float64("rate", 2000, "target submit rate, messages/second (0 = unthrottled)")
		size   = flag.Int("size", 64, "payload bytes")
		loss   = flag.Float64("loss", 0, "injected network loss rate")
		seed   = flag.Int64("seed", 1, "loss RNG seed")
		total  = flag.Bool("total", false, "use total-order delivery")
		groups = flag.Int("groups", 1, "spread traffic over this many independent ordered groups")
		shards = flag.Int("shards", 0, "shard goroutines for the multi-group runtime (0 = GOMAXPROCS)")
		wait   = flag.Duration("timeout", 2*time.Minute, "overall deadline")
		addr   = flag.String("obsv", "", "serve /metrics, /statez and pprof on this address during the run (e.g. 127.0.0.1:9090)")
	)
	flag.Parse()
	if *groups < 1 {
		fmt.Fprintln(os.Stderr, "coload: -groups must be >= 1")
		os.Exit(2)
	}
	if err := run(*n, *msgs, *rate, *size, *loss, *seed, *total, *groups, *shards, *wait, *addr); err != nil {
		fmt.Fprintln(os.Stderr, "coload:", err)
		os.Exit(1)
	}
}

func run(n, msgs int, rate float64, size int, loss float64, seed int64, total bool, groups, shards int, wait time.Duration, obsvAddr string) error {
	opts := []cobcast.Option{
		cobcast.WithLossRate(loss),
		cobcast.WithSeed(seed),
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithRetransmitTimeout(5 * time.Millisecond),
	}
	if total {
		opts = append(opts, cobcast.WithTotalOrder())
	}
	if shards > 0 {
		opts = append(opts, cobcast.WithGroupShards(shards))
	}
	if obsvAddr != "" {
		reg := obsv.NewRegistry()
		opts = append(opts, cobcast.WithObservability(reg))
		srv, err := obsv.Serve(reg, obsvAddr)
		if err != nil {
			return fmt.Errorf("obsv endpoint: %w", err)
		}
		defer srv.Close()
		fmt.Printf("observability: http://%s/metrics /statez /debug/pprof/\n", srv.Addr())
	}
	cluster, err := cobcast.NewCluster(n, opts...)
	if err != nil {
		return err
	}
	defer cluster.Close()

	// One port per (node, group); with -groups 1 these are the nodes'
	// default ports and the run is byte-identical to the classic
	// single-group load test.
	ports := experiments.MultiGroupPorts(cluster, n, groups)
	res, err := experiments.RunLoad(ports, experiments.LoadSpec{Msgs: msgs, Rate: rate, Size: size}, wait)
	if err != nil {
		return err
	}

	mode := "causal order"
	if total {
		mode = "total order"
	}
	if groups > 1 {
		mode = fmt.Sprintf("%s, %d groups", mode, groups)
	}
	fmt.Printf("%d messages × %d nodes (%s, %.0f%% loss) in %v (submit phase %v)\n",
		msgs, n, mode, loss*100, res.Wall.Round(time.Millisecond), res.Submit.Round(time.Millisecond))
	fmt.Printf("delivery throughput: %.0f msg/s per node (%.0f deliveries/s cluster-wide)\n",
		float64(msgs)/res.Wall.Seconds(), float64(msgs*n)/res.Wall.Seconds())
	fmt.Printf("end-to-end latency (µs): p50=%d p95=%d p99=%d max=%d (n=%d samples)\n",
		res.Percentile(50).Microseconds(), res.Percentile(95).Microseconds(),
		res.Percentile(99).Microseconds(), res.Percentile(100).Microseconds(), len(res.Latencies))

	agg := experiments.PortStats(ports)
	fmt.Printf("protocol: msgs=%d data=%d (%.2f msgs/DATA) sync=%d ackonly=%d ret=%d retx=%d dup=%d flow-blocked=%d\n",
		agg.MsgsSent, agg.DataSent, float64(agg.MsgsSent)/float64(agg.DataSent),
		agg.SyncSent, agg.AckOnlySent, agg.RetSent,
		agg.Retransmitted, agg.Duplicates, agg.FlowBlocked)
	ns := cluster.NetworkStats()
	fmt.Printf("network: sent=%d delivered=%d lost=%d overrun=%d\n",
		ns.Sent, ns.Delivered, ns.DroppedLoss, ns.DroppedOverrun)
	return nil
}
