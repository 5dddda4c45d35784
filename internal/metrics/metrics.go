// Package metrics renders the paper's figures and tables as aligned
// text tables on a terminal. (Latency distributions live elsewhere:
// internal/obsv.Histogram is the repository's one histogram type.)
package metrics

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// Table accumulates rows and renders them with aligned columns. Used by
// cmd/cobench to print each experiment in the shape of the paper's
// figures and tables.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with a title line and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
		b.WriteString(strings.Repeat("-", len(t.title)))
		b.WriteByte('\n')
	}
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	if len(t.headers) > 0 {
		fmt.Fprintln(w, strings.Join(t.headers, "\t"))
	}
	for _, row := range t.rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
	}
	w.Flush()
	return b.String()
}
