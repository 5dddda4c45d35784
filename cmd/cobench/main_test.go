package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestUnknownExperimentRejected(t *testing.T) {
	if err := run("no-such-experiment", true); err == nil {
		t.Error("unknown experiment accepted")
	}
}

// TestQuickExperiments exercises the fast experiment runners end to end
// (output goes to stdout; correctness of the numbers is covered by the
// experiments package tests).
func TestQuickExperiments(t *testing.T) {
	for _, exp := range []string{"table1", "services", "pdulen", "acklat", "msgs"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if err := run(exp, true); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllExperimentsQuick runs the complete quick sweep — every runner —
// to keep the harness end-to-end healthy. Skipped in -short.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	if err := run("all", true); err != nil {
		t.Fatal(err)
	}
}

// TestEveryDocumentedReproducerExists holds EXPERIMENTS.md and the
// DESIGN.md §3 index to the promise that every E-number is reproducible
// by one command: each experiment section header and index row names a
// reproducer, every `-exp NAME` in either file is a registered runner,
// and every Benchmark… they mention is still defined somewhere in the
// tree.
func TestEveryDocumentedReproducerExists(t *testing.T) {
	root := filepath.Join("..", "..")
	registered := make(map[string]bool)
	for _, e := range experimentRunners {
		registered[e.name] = true
	}
	defined := make(map[string]bool)
	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(`)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir // .git, .bench_build
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllSubmatch(src, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	expFlag := regexp.MustCompile("-exp ([a-z0-9-]+)")
	benchName := regexp.MustCompile(`Benchmark\w+`)
	otherTool := regexp.MustCompile("`cmd/(cochaos|cosoak)`")
	for _, doc := range []struct {
		file string
		// entry matches the lines that must each name a reproducer;
		// want is how many of them the file has today.
		entry *regexp.Regexp
		want  int
	}{
		{"EXPERIMENTS.md", regexp.MustCompile(`^## (E\d|A\d|§)`), 26}, // E1–E24, §2.3, A1–A3
		{"DESIGN.md", regexp.MustCompile(`^\| (E|A)\d`), 13},          // the §3 index rows
	} {
		text, err := os.ReadFile(filepath.Join(root, doc.file))
		if err != nil {
			t.Fatal(err)
		}
		entries := 0
		for i, line := range strings.Split(string(text), "\n") {
			exps := expFlag.FindAllStringSubmatch(line, -1)
			benches := benchName.FindAllString(line, -1)
			for _, m := range exps {
				if !registered[m[1]] {
					t.Errorf("%s:%d: `-exp %s` is not a cobench experiment", doc.file, i+1, m[1])
				}
			}
			for _, b := range benches {
				if !defined[b] {
					t.Errorf("%s:%d: %s is not defined in any _test.go", doc.file, i+1, b)
				}
			}
			if doc.entry.MatchString(line) {
				entries++
				if len(exps) == 0 && len(benches) == 0 && !otherTool.MatchString(line) {
					t.Errorf("%s:%d: names no reproducer: %s", doc.file, i+1, line)
				}
			}
		}
		if entries != doc.want {
			t.Errorf("%s: found %d experiment entries, want %d: header or row format changed?", doc.file, entries, doc.want)
		}
	}
}

// TestEveryOptionHasACaller holds the public surface to the rule that a
// knob exists because something sets it: every exported With* option in
// cobcast.go and transport.go must be called from a non-test file of an
// example, a tool, an experiment or the end-to-end benchmark. Deployment
// settings — values only a real installation can know — are exempt.
func TestEveryOptionHasACaller(t *testing.T) {
	root := filepath.Join("..", "..")
	deployment := map[string]bool{"WithClusterID": true, "WithSocketBuffers": true}
	var callers strings.Builder
	for _, dir := range []string{"examples", "cmd", filepath.Join("internal", "experiments"), "bench"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			callers.Write(src)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	optionFunc := regexp.MustCompile(`(?m)^func (With\w+)\(`)
	for _, file := range []string{"cobcast.go", "transport.go"} {
		src, err := os.ReadFile(filepath.Join(root, file))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range optionFunc.FindAllSubmatch(src, -1) {
			if name := string(m[1]); !deployment[name] && !strings.Contains(callers.String(), "."+name+"(") {
				t.Errorf("%s: %s has no caller outside tests: delete it, or give it an example, tool, experiment or bench workload", file, name)
			}
		}
	}
}
