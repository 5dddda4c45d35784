// Command cotrace reads flight-recorder dumps — the /tracez document a
// node's observability server serves, or a saved one such as the
// seed-N.flight.json cochaos writes — and checks them against the
// ordering properties of Section 2.2, or assembles them into a Chrome
// trace. A source naming a file is read as a saved dump; any other is
// an observability server's address (http:// is assumed), scraped at
// its /tracez endpoint.
//
// The check subcommand replays each group's rings, one per entity,
// through the Section 2.2 checker: information preservation, local
// order, causal order, and with -total total order. A ring that wrapped
// holds only a suffix of its entity's stream, so it is refused by name
// instead of checked; size live rings with cobcast.WithFlightRecorder,
// and scrape a live cluster once it is quiet.
//
//	cotrace check seed-4242.flight.json
//	cotrace check -total node0:9090 node1:9091 ...
//
// The live subcommand assembles the rings into a Chrome trace-event file
// — open it at ui.perfetto.dev to see each message's lifecycle span on
// every node, linked by causal flow arrows from its sequencing node to
// each acceptor:
//
//	cotrace live -out spans.json node0:9090 node1:9091 ...
//	cotrace live 127.0.0.1:9090 > spans.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strings"
	"time"

	"cobcast/internal/cospan"
	"cobcast/internal/obsv"
	"cobcast/internal/trace"
)

const usage = "usage: cotrace check [-total] DUMP|URL ... | cotrace live [-out spans.json] DUMP|URL ..."

// scrapeTimeout bounds each endpoint's scrape (live's -timeout default).
const scrapeTimeout = 5 * time.Second

func main() {
	cmds := map[string]func([]string) error{"check": check, "live": live}
	if len(os.Args) < 2 || cmds[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	if err := cmds[os.Args[1]](os.Args[2:]); err != nil {
		fmt.Fprintf(os.Stderr, "cotrace %s: %v\n", os.Args[1], err)
		os.Exit(1)
	}
}

// check runs the Section 2.2 checker over every group the sources' rings
// belong to.
func check(args []string) error {
	fs := flag.NewFlagSet("cotrace check", flag.ContinueOnError)
	total := fs.Bool("total", false, "also check total order")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodes, err := loadAll(fs.Args(), scrapeTimeout, false)
	if err != nil {
		return err
	}
	as, err := trace.AnalyzeDumps(nodes)
	if err != nil {
		return err
	}
	groups := make([]uint32, 0, len(as))
	for g := range as {
		groups = append(groups, g)
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i] < groups[j] })
	failed := false
	for _, g := range groups {
		a := as[g]
		s := a.Summary()
		fmt.Printf("group %d: %d events: %d data + %d sync sends, %d accepts, %d deliveries, %d retransmits\n",
			g, s.Events, s.DataSends, s.SyncSends, s.Accepts, s.Deliveries, s.Retransmits)
		checks := []struct {
			name string
			fn   func() error
		}{
			{"information-preserved", a.CheckInformationPreserved},
			{"local-order-preserved", a.CheckLocalOrderPreserved},
			{"causality-preserved", a.CheckCausalOrderPreserved},
		}
		if *total {
			checks = append(checks, struct {
				name string
				fn   func() error
			}{"total-order-preserved", a.CheckTotalOrderPreserved})
		}
		for _, c := range checks {
			if err := c.fn(); err != nil {
				failed = true
				fmt.Printf("FAIL %-24s %v\n", c.name, err)
			} else {
				fmt.Printf("ok   %s\n", c.name)
			}
		}
	}
	if failed {
		return fmt.Errorf("dumps violate the service properties")
	}
	return nil
}

// live writes the sources' rings as one Chrome trace. A node label that
// collides across sources is prefixed by its source index, so
// multi-process clusters keep distinct process tracks.
func live(args []string) error {
	fs := flag.NewFlagSet("cotrace live", flag.ContinueOnError)
	out := fs.String("out", "", "write the Chrome trace here (default stdout)")
	timeout := fs.Duration("timeout", scrapeTimeout, "per-endpoint scrape timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	nodes, err := loadAll(fs.Args(), *timeout, true)
	if err != nil {
		return err
	}
	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := cospan.WriteJSON(w, nodes); err != nil {
		return err
	}
	if *out != "" {
		total := 0
		for _, nf := range nodes {
			total += len(nf.Events)
		}
		fmt.Printf("wrote %s: %d flight events from %d rings across %d sources (open at ui.perfetto.dev)\n",
			*out, total, len(nodes), fs.NArg())
	}
	return nil
}

// loadAll reads every source's rings, in order; with prefix, a label
// already seen from an earlier source is prefixed "ep<i>/".
func loadAll(srcs []string, timeout time.Duration, prefix bool) ([]obsv.NodeFlight, error) {
	if len(srcs) == 0 {
		return nil, fmt.Errorf("no sources; %s", usage)
	}
	client := &http.Client{Timeout: timeout}
	var nodes []obsv.NodeFlight
	seen := make(map[string]bool)
	for i, src := range srcs {
		doc, err := load(client, src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", src, err)
		}
		for _, nf := range doc.Nodes {
			if prefix && seen[nf.Node] {
				nf.Node = fmt.Sprintf("ep%d/%s", i, nf.Node)
			}
			seen[nf.Node] = true
			nodes = append(nodes, nf)
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("sources held no flight rings (is WithObservability + flight recording enabled?)")
	}
	return nodes, nil
}

// load decodes one source's /tracez document: read from the file src if
// there is one, scraped from the server at src otherwise.
func load(client *http.Client, src string) (*obsv.Tracez, error) {
	var rd io.Reader
	if _, err := os.Stat(src); err != nil {
		u := strings.TrimSuffix(src, "/") + "/tracez"
		if !strings.Contains(src, "://") {
			u = "http://" + u
		}
		resp, err := client.Get(u)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("GET %s: %s", u, resp.Status)
		}
		rd = resp.Body
	} else {
		f, err := os.Open(src)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		rd = f
	}
	var doc obsv.Tracez
	if err := json.NewDecoder(rd).Decode(&doc); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return &doc, nil
}
