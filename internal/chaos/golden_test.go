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
// predicate).
func goldenLine(seed int64, wire int) string {
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
	return fmt.Sprintf("%d %d %s %s %s", seed, wire, res.TraceDigest, groups, outcome)
}

// TestGoldenSweepDigests pins the sweep's behaviour by value: the trace
// digests of FromSeed(1..64) under the pointer path and codec v2 must
// equal the captured ones. Multi-group seeds ride codec v2 under either
// wire version, so the two lines of such a seed must agree. Every other
// determinism test compares a run with itself; this one catches a
// harness change that shifts both runs alike (event order, RNG draw
// order, which faults bite). After an intentional protocol change,
// re-capture: the failure message prints each replacement line. The
// last such change was Karn's rule on auto-suspicion (an eviction by the
// suspicion timer voids the round probe, as a manual one always did),
// which moves the two lines of seed 50, a stalled-peer run.
func TestGoldenSweepDigests(t *testing.T) {
	file, err := os.Open("testdata/golden_sweep_digests.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	lines := 0
	pointer := map[int64]string{} // multi-group seeds' wire-0 digests
	for sc := bufio.NewScanner(file); sc.Scan(); lines++ {
		want := sc.Text()
		var seed int64
		var wire int
		var trace, groups, outcome string
		if _, err := fmt.Sscan(want, &seed, &wire, &trace, &groups, &outcome); err != nil {
			t.Fatalf("golden line %q: %v", want, err)
		}
		if got := goldenLine(seed, wire); got != want {
			t.Errorf("seed %d wire %d drifted:\n got  %s\n want %s", seed, wire, got, want)
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
}
