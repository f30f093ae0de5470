package experiments

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// Table is a rendered experiment result.
type Table struct {
	// ID is the experiment identifier from DESIGN.md (e.g. "fig4").
	ID string
	// Title describes the paper artifact being reproduced.
	Title string
	// Columns are the header names.
	Columns []string
	// Rows hold the data, already formatted.
	Rows [][]string
}

// AddRow appends a row of values formatted with %v.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", x)
		default:
			row[i] = fmt.Sprintf("%v", x)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table as aligned text and returns the first write error.
func (t *Table) Render(out io.Writer) error {
	w := bufio.NewWriter(out)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, v := range r {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s  ", widths[i], c)
	}
	fmt.Fprintln(w)
	for i := range t.Columns {
		fmt.Fprintf(w, "%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		for i, v := range r {
			fmt.Fprintf(w, "%-*s  ", widths[i], v)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
	return w.Flush()
}

// CSV writes the table as comma-separated values and returns the first write
// error.
func (t *Table) CSV(out io.Writer) error {
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, strings.Join(t.Columns, ","))
	for _, r := range t.Rows {
		fmt.Fprintln(w, strings.Join(r, ","))
	}
	return w.Flush()
}
