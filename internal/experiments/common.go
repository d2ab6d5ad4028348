// Package experiments implements the evaluation suite of the
// reproduction. The paper ("Desiderata for a Big Data Language", CIDR
// 2015) is a vision paper with no tables or figures of its own, so each
// experiment here is derived from one of its explicit claims: the two
// goals (Portability, Multi-Server Applications), the three extensions
// over LINQ (expressive array model, control iteration, multi-server
// queries), and the four desiderata (Coverage, Translatability, Intent
// Preservation, Server Interoperation). Each experiment's file opens
// with the claim it tests; cmd/nexus-bench prints these tables;
// bench_test.go wraps the same code in testing.B benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"nexus/internal/table"
)

// Result is one experiment's output table.
type Result struct {
	ID     string
	Title  string
	Claim  string // the paper sentence this tests (abridged)
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// Note appends a free-text note below the table.
func (r *Result) Note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the experiment as an aligned text table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", r.ID, r.Title)
	if r.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", r.Claim)
	}
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// fmtDur renders a duration compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
}

// fmtBytes renders a byte count compactly.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// mark renders a boolean as a table cell.
func mark(ok bool) string {
	if ok {
		return "✓"
	}
	return "—"
}

// mustDropDims returns the table with dimension tags cleared (plain
// relational view of array data).
func mustDropDims(t *table.Table) *table.Table {
	out, err := t.WithSchema(t.Schema().DropDims())
	if err != nil {
		panic(err)
	}
	return out
}
