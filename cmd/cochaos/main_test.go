package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cobcast/internal/chaos"
)

func TestSweepPasses(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sweep", "6", "-par", "2", "-start", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "6/6 seeds passed") {
		t.Fatalf("unexpected output: %s", out.String())
	}
	if !strings.Contains(out.String(), "coverage:") {
		t.Fatalf("missing coverage summary: %s", out.String())
	}
}

// TestSweepReportsRegimes pins the regimes line: the seed counts by kind
// of run add up to the sweep, and 60 seeds reach all three kinds.
func TestSweepReportsRegimes(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-sweep", "60", "-par", "2", "-start", "1"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	var classic, stalled, multi int
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.HasPrefix(line, "regimes:") {
			if _, err := fmt.Sscanf(line, "regimes: %d classic, %d stalled, %d multi-group seeds",
				&classic, &stalled, &multi); err != nil {
				t.Fatalf("malformed regimes line %q: %v", line, err)
			}
		}
	}
	if classic+stalled+multi != 60 || classic == 0 || stalled == 0 || multi == 0 {
		t.Fatalf("regimes %d classic + %d stalled + %d multi-group, want all three and 60 in total:\n%s",
			classic, stalled, multi, out.String())
	}
}

func TestReplayDeterministicTrace(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	for _, path := range []string{a, b} {
		var out, errb bytes.Buffer
		if code := run([]string{"-seed", "11", "-v", "-trace", path}, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr: %s", code, errb.String())
		}
		if !strings.Contains(out.String(), "all predicates hold") {
			t.Fatalf("unexpected output: %s", out.String())
		}
	}
	ba, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ba) == 0 || !bytes.Equal(ba, bb) {
		t.Fatal("replayed traces are not byte-identical")
	}
}

func TestReplayMatchesEngine(t *testing.T) {
	// The CLI must reproduce exactly what the engine computes for a seed.
	res, err := chaos.Run(chaos.FromSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "t.jsonl")
	var out, errb bytes.Buffer
	if code := run([]string{"-seed", "11", "-trace", path}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, res.TraceJSON) {
		t.Fatal("CLI trace differs from engine trace for the same seed")
	}
	if !strings.Contains(out.String(), res.TraceDigest) {
		t.Fatalf("digest %s not reported: %s", res.TraceDigest, out.String())
	}
}

func TestUsage(t *testing.T) {
	cases := [][]string{
		{},
		{"-sweep", "3", "-seed", "4"},
		{"-bogus"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}
