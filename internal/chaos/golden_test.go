package chaos

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
)

// goldenLine renders one run the way golden_sweep_digests.txt stores it:
// seed, wire version, the combined trace digest, the per-group digests
// ("-" for a single-group run) and the outcome ("ok" or the violated
// predicate). It also returns the run, for what the line does not say.
func goldenLine(seed int64, wire int) (string, *Result) {
	cfg := FromSeed(seed)
	cfg.WireVersion = wire
	res, err := Run(cfg)
	outcome := "ok"
	var v *Violation
	if errors.As(err, &v) {
		outcome = v.Predicate
	} else if err != nil {
		outcome = "error"
	}
	groups := "-"
	if len(res.GroupDigests) > 0 {
		groups = strings.Join(res.GroupDigests, ",")
	}
	return fmt.Sprintf("%d %d %s %s %s", seed, wire, res.TraceDigest, groups, outcome), res
}

// TestGoldenSweepDigests pins the sweep's behaviour by value: the trace
// digests of FromSeed(1..64) under the pointer path and codec v2 must
// equal the ones captured at PR 12, when single-group seeds ran on
// simrun.Cluster and multi-group seeds on a separate hand-rolled runner.
// Multi-group seeds ride codec v2 under either wire version, so the two
// lines of such a seed must agree (their wire-0 lines held v1-entry
// digests until that codec was deleted). Every other determinism test
// compares a run with itself; this one catches a harness change that
// shifts both runs alike (event order, RNG draw order, which faults
// bite). After an intentional protocol change, re-capture: the failure
// message prints each replacement line.
//
// The last such change packed backlogs (DESIGN.md §2n), and it must move
// nothing else: golden_sweep_digests_unpacked.txt holds the same 128
// lines as captured before it, and a run in which no pack formed —
// every run in which no submission ever found the window closed, for
// one — still produces its line from that file. (The next intentional
// change of PDU emission re-captures one file and deletes the other.)
func TestGoldenSweepDigests(t *testing.T) {
	file, err := os.Open("testdata/golden_sweep_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	unpacked, err := os.ReadFile("testdata/golden_sweep_digests_unpacked.txt")
	if err != nil {
		t.Fatal(err)
	}
	before := strings.Split(strings.TrimSpace(string(unpacked)), "\n")
	lines, repinned := 0, 0
	pointer := map[int64]string{} // multi-group seeds' wire-0 digests
	for sc := bufio.NewScanner(file); sc.Scan(); lines++ {
		want := sc.Text()
		var seed int64
		var wire int
		var trace, groups, outcome string
		if _, err := fmt.Sscan(want, &seed, &wire, &trace, &groups, &outcome); err != nil {
			t.Fatalf("golden line %q: %v", want, err)
		}
		got, res := goldenLine(seed, wire)
		if got != want {
			t.Errorf("seed %d wire %d drifted:\n got  %s\n want %s", seed, wire, got, want)
		}
		packed := res.Stats.MsgsSent > res.Stats.DataSent
		switch {
		case lines >= len(before):
			t.Fatalf("pre-packing file holds %d lines, want 128", len(before))
		case packed && res.Stats.FlowBlocked == 0:
			t.Errorf("seed %d wire %d packed %d messages into %d DATA PDUs with the window never closed",
				seed, wire, res.Stats.MsgsSent, res.Stats.DataSent)
		case !packed && got != before[lines]:
			t.Errorf("seed %d wire %d formed no pack (FlowBlocked %d) yet left its pre-packing line:\n got    %s\n before %s",
				seed, wire, res.Stats.FlowBlocked, got, before[lines])
		case got != before[lines]:
			repinned++
		}
		if groups == "-" {
			continue
		}
		if rest := trace + " " + groups + " " + outcome; wire == 0 {
			pointer[seed] = rest
		} else if pointer[seed] != rest {
			t.Errorf("multi-group seed %d: wire 0 pinned as %q, wire 2 as %q", seed, pointer[seed], rest)
		}
	}
	if len(pointer) == 0 {
		t.Error("golden file holds no multi-group seed")
	}
	if lines != 128 {
		t.Fatalf("golden file holds %d runs, want 64 seeds × 2 wire versions", lines)
	}
	if repinned == 0 || repinned == lines {
		t.Errorf("%d of %d lines differ from the pre-packing capture: want some seeds packing and some not", repinned, lines)
	}
}
