package metrics

import (
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Figure 8", "n", "Tco", "Tap")
	tbl.AddRow(2, 1.5, "3ms")
	tbl.AddRow(4, 2.25, "6ms")
	s := tbl.String()
	for _, want := range []string{"Figure 8", "n", "Tco", "Tap", "1.500", "2.250", "3ms", "6ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("table output missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, rule, header, 2 rows
		t.Errorf("table has %d lines, want 5:\n%s", len(lines), s)
	}
}

func TestTableNoTitle(t *testing.T) {
	tbl := NewTable("", "a")
	tbl.AddRow("x")
	if strings.Contains(tbl.String(), "---") {
		t.Error("title rule printed for empty title")
	}
}
