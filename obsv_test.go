package cobcast_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cobcast"
	"cobcast/internal/obsv/promtext"
	"cobcast/obsv"
)

// TestClusterObservabilityLive runs a lossy real-time cluster with the
// registry attached and scrapes /metrics and /statez continuously while
// traffic flows. Under -race this is the torn-state check for the node
// snapshot channel and every atomic counter; the assertions also pin
// the snapshots' internal consistency mid-run.
func TestClusterObservabilityLive(t *testing.T) {
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

	// Scraper: hammer the endpoint for the whole run.
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
			resp, err := http.Get("http://" + srv.Addr() + "/metrics")
			if err != nil {
				scraperErr <- err
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				scraperErr <- err
				return
			}
			if _, err := promtext.Parse(strings.NewReader(string(body))); err != nil {
				scraperErr <- err
				return
			}
			statez := reg.Statez()
			for _, s := range statez.Nodes {
				if len(s.REQ) != nodes || len(s.MinAL) != nodes || len(s.RRL) != nodes {
					scraperErr <- errTorn(s)
					return
				}
				if s.BufFree > s.BufUnits {
					scraperErr <- errTorn(s)
					return
				}
			}
		}
	}()

	// Traffic: every node broadcasts, every node consumes.
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
	payload := make([]byte, 16)
	for i := 0; i < msgs; i++ {
		binary.BigEndian.PutUint64(payload, uint64(i))
		if err := cluster.Broadcast(i%nodes, payload); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(stop)
	if err := <-scraperErr; err != nil {
		t.Fatal(err)
	}

	// After the run the registry totals cover the whole cluster.
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("final scrape invalid: %v", err)
	}
	if v, _ := fams.Value("cobcast_delivered_total", nil); v < float64(msgs*nodes) {
		t.Errorf("delivered_total %v < %d", v, msgs*nodes)
	}
	if v, ok := fams.Value("cobcast_link_flushed_pdus_total", nil); !ok || v == 0 {
		t.Error("link metrics did not record any flushes")
	}
	if v, ok := fams.Value("cobcast_net_pdus_dropped_total", map[string]string{"cause": "loss"}); !ok || v == 0 {
		t.Errorf("lossy network recorded no losses (%v, %v)", v, ok)
	}
}

type errTorn obsv.StateSnapshot

func (e errTorn) Error() string { return "torn snapshot observed" }

// TestNodeStatsMatchRegistry cross-checks the public Stats API against
// the registry's /metrics counters and /statez counters for a real-time
// cluster.
func TestNodeStatsMatchRegistry(t *testing.T) {
	reg := obsv.NewRegistry()
	cluster, err := cobcast.NewCluster(2,
		cobcast.WithDeferredAckInterval(time.Millisecond),
		cobcast.WithObservability(reg),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	for i := 0; i < 10; i++ {
		if err := cluster.Broadcast(i%2, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		nd := cluster.Node(i)
		for seen := 0; seen < 10; seen++ {
			select {
			case <-nd.Deliveries():
			case <-time.After(10 * time.Second):
				t.Fatalf("node %d: timeout at %d/10", i, seen)
			}
		}
	}
	// Stats, /metrics and /statez all read the engines through their
	// shards, so once every delivery arrived they agree without waiting.
	var buf bytes.Buffer
	if err := reg.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	fams, err := promtext.Parse(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var wantDelivered uint64
	for i := 0; i < 2; i++ {
		wantDelivered += cluster.Node(i).Stats().Delivered
	}
	if v, _ := fams.Value("cobcast_delivered_total", nil); uint64(v) != wantDelivered {
		t.Errorf("registry delivered %v, Stats sum %d", v, wantDelivered)
	}

	buf.Reset()
	if err := reg.WriteStatez(&buf); err != nil {
		t.Fatal(err)
	}
	var statez struct {
		Nodes []struct {
			Node     string `json:"node"`
			Counters struct {
				Delivered uint64 `json:"delivered"`
			} `json:"counters"`
		} `json:"nodes"`
	}
	if err := json.Unmarshal(buf.Bytes(), &statez); err != nil {
		t.Fatal(err)
	}
	if len(statez.Nodes) != 2 {
		t.Fatalf("/statez has %d nodes, want 2", len(statez.Nodes))
	}
	for i, s := range statez.Nodes {
		if want := strconv.Itoa(i); s.Node != want {
			t.Fatalf("/statez node %d is %q, want %q", i, s.Node, want)
		}
		if want := cluster.Node(i).Stats().Delivered; s.Counters.Delivered != want {
			t.Errorf("node %d: /statez counters.delivered %d, Stats().Delivered %d", i, s.Counters.Delivered, want)
		}
	}
}
