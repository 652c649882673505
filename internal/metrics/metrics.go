// Package metrics provides the small result-aggregation and text-table
// utilities the benchmark harness uses to print paper-style tables.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns. Columns whose data
// cells all look numeric (counts, "1234.5s" durations, "130%" ratios,
// "1.9GB" sizes) are right-aligned so magnitudes line up when values
// cross a power of ten — a 1000s+ cell in the Figure 5–8 sweeps no
// longer shoves its unit out of column. Rows may be wider than the
// header row; extra cells get their own columns instead of a panic.
func (t *Table) String() string {
	ncols := len(t.Headers)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	right := make([]bool, ncols)
	for i := range right {
		right[i] = t.numericColumn(i)
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	var ln strings.Builder
	line := func(cells []string) {
		ln.Reset()
		for i, c := range cells {
			if i > 0 {
				ln.WriteString("  ")
			}
			if right[i] {
				fmt.Fprintf(&ln, "%*s", widths[i], c)
			} else {
				fmt.Fprintf(&ln, "%-*s", widths[i], c)
			}
		}
		b.WriteString(strings.TrimRight(ln.String(), " "))
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, ncols)
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// numericColumn reports whether every non-empty data cell in the column
// starts with a digit (optionally signed or "~"-approximated) — the
// signature of a magnitude that should be right-aligned.
func (t *Table) numericColumn(col int) bool {
	any := false
	for _, row := range t.Rows {
		if col >= len(row) || row[col] == "" {
			continue
		}
		c := row[col]
		if c[0] == '-' || c[0] == '+' || c[0] == '~' {
			c = c[1:]
		}
		if len(c) == 0 || c[0] < '0' || c[0] > '9' {
			return false
		}
		any = true
	}
	return any
}

// Seconds formats a duration as "123.4s".
func Seconds(d time.Duration) string { return fmt.Sprintf("%.1fs", d.Seconds()) }

// Pct formats a ratio as a percentage, e.g. 1.30 -> "130%".
func Pct(ratio float64) string { return fmt.Sprintf("%.0f%%", ratio*100) }

// GB formats a byte count in gigabytes, keeping one decimal for
// fractional sizes ("1.9GB") instead of truncating them to "1GB";
// whole-gigabyte counts stay compact ("8GB").
func GB(bytes int64) string {
	s := fmt.Sprintf("%.1f", float64(bytes)/(1<<30))
	return strings.TrimSuffix(s, ".0") + "GB"
}
