// Package experiments regenerates every figure- and theorem-level claim of
// the paper as a measured table (the experiment index lives in DESIGN.md).
// Each E* function is invoked by both cmd/gsketch and the root
// bench_test.go.
//
// The paper is a theory paper with no empirical tables; what these
// experiments reproduce is the *shape* of each result: who wins, how error
// scales with the parameter the theorem names, and where crossovers fall.
package experiments

import (
	"fmt"
	"strings"
)

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Format renders the table as aligned text.
func (t Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
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
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }
func d64(x int64) string  { return fmt.Sprintf("%d", x) }
func boolS(v bool) string { return fmt.Sprintf("%v", v) }
func kwords(w int) string { return fmt.Sprintf("%dK", (w+512)/1024) }
