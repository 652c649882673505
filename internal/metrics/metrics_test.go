package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("My Title", "name", "note")
	tb.Add("short", "x")
	tb.Add("a-much-longer-name", "yy")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "My Title" {
		t.Fatalf("title line = %q", lines[0])
	}
	// Header, separator and rows must all start their second column at
	// the same offset: first-column width plus the two-space gap.
	width := len("a-much-longer-name")
	for _, ln := range lines[1:] {
		if len(ln) <= width+2 {
			t.Fatalf("line %q too short for second column", ln)
		}
		if ln[width:width+2] != "  " || ln[width+2] == ' ' {
			t.Fatalf("misaligned line %q (second column should start at %d)", ln, width+2)
		}
	}
	if !strings.Contains(out, "----") {
		t.Fatal("separator row missing")
	}
}

// Numeric columns right-align so "90.0s" and "1234.5s" keep their units
// in the same place; the Figure 5–8 sweeps cross 1000s at paper scale.
func TestTableNumericColumnsRightAlign(t *testing.T) {
	tb := NewTable("", "x", "HDFS", "improvement")
	tb.Add("1GB", "90.0s", "130%")
	tb.Add("8GB", "1234.5s", "~131%")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// Every line's HDFS column occupies the same span; values share a
	// right edge, so the shorter one is padded on the left.
	if want := "1GB    90.0s"; !strings.Contains(lines[2], want) {
		t.Fatalf("short value not right-aligned: %q (want substring %q)", lines[2], want)
	}
	if want := "8GB  1234.5s"; !strings.Contains(lines[3], want) {
		t.Fatalf("long value misaligned: %q (want substring %q)", lines[3], want)
	}
	// The "improvement" column is numeric too ("~" counts as a sign).
	if !strings.HasSuffix(lines[2], " 130%") || !strings.HasSuffix(lines[3], "~131%") {
		t.Fatalf("percentage column not right-aligned:\n%s", out)
	}
}

// A row with more cells than the header row must widen the table, not
// panic on a widths index out of range.
func TestTableRowWiderThanHeaders(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.Add("1", "2", "extra")
	out := tb.String()
	if !strings.Contains(out, "extra") {
		t.Fatalf("extra cell dropped:\n%s", out)
	}
}

// Rendered lines never carry trailing padding after the last cell.
func TestTableNoTrailingSpaces(t *testing.T) {
	tb := NewTable("t", "name", "note")
	tb.Add("a-long-first-cell", "x")
	tb.Add("b", "y")
	for i, ln := range strings.Split(tb.String(), "\n") {
		if strings.TrimRight(ln, " ") != ln {
			t.Fatalf("line %d has trailing spaces: %q", i, ln)
		}
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "a")
	tb.Add("x")
	if strings.HasPrefix(tb.String(), "\n") {
		t.Fatal("empty title produced a leading blank line")
	}
}

func TestFormatters(t *testing.T) {
	if got := Seconds(90 * time.Second); got != "90.0s" {
		t.Fatalf("Seconds = %q", got)
	}
	if got := Pct(1.304); got != "130%" {
		t.Fatalf("Pct = %q", got)
	}
	if got := GB(8 << 30); got != "8GB" {
		t.Fatalf("GB = %q", got)
	}
	// Fractional sizes must not be truncated to the floor gigabyte.
	if got := GB(2040109465); got != "1.9GB" { // 1.9 * 2^30
		t.Fatalf("GB = %q, want 1.9GB", got)
	}
	if got := GB(1 << 29); got != "0.5GB" {
		t.Fatalf("GB = %q, want 0.5GB", got)
	}
}
