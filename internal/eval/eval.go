// Package eval provides the error metrics and plain-text rendering used to
// regenerate the paper's tables and figures on a terminal: mean/worst-case
// localization error aggregation and ASCII tables/heatmaps. Everything runs
// on the caller's goroutine.
package eval

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Errors converts predictions into per-sample localization errors under a
// distance function (typically Dataset.ErrorMeters).
func Errors(preds, labels []int, dist func(a, b int) float64) []float64 {
	out := make([]float64, len(preds))
	for i, p := range preds {
		out[i] = dist(p, labels[i])
	}
	return out
}

// Stats summarises a sample of localization errors in metres.
type Stats struct {
	Mean, Worst, Median, P95 float64
	N                        int
}

// Summarize computes Stats over errors; an empty slice yields zeros.
func Summarize(errors []float64) Stats {
	if len(errors) == 0 {
		return Stats{}
	}
	s := Stats{N: len(errors)}
	sorted := append([]float64(nil), errors...)
	sort.Float64s(sorted)
	var sum float64
	for _, e := range sorted {
		sum += e
	}
	s.Mean = sum / float64(len(sorted))
	s.Worst = sorted[len(sorted)-1]
	s.Median = quantile(sorted, 0.5)
	s.P95 = quantile(sorted, 0.95)
	return s
}

// quantile interpolates the q-quantile of a sorted slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Table renders rows as a fixed-width ASCII table with a header.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// Heatmap renders a labelled 2-D grid of values as an ASCII heatmap with one
// shaded cell per value plus the numeric value, mirroring the paper's Fig 4.
type Heatmap struct {
	Title     string
	RowLabels []string
	ColLabels []string
	Values    [][]float64 // [row][col]
}

// shades from light to dark for increasing values.
var shades = []string{"·", "░", "▒", "▓", "█"}

// String renders the heatmap; shading is normalised to the value range.
func (h *Heatmap) String() string {
	var lo, hi float64
	first := true
	for _, row := range h.Values {
		for _, v := range row {
			if first || v < lo {
				lo = v
			}
			if first || v > hi {
				hi = v
			}
			first = false
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	labelW := 0
	for _, l := range h.RowLabels {
		if len(l) > labelW {
			labelW = len(l)
		}
	}
	var b strings.Builder
	if h.Title != "" {
		fmt.Fprintf(&b, "%s\n", h.Title)
	}
	fmt.Fprintf(&b, "%-*s", labelW+1, "")
	for _, c := range h.ColLabels {
		fmt.Fprintf(&b, "%8s", c)
	}
	b.WriteByte('\n')
	for i, row := range h.Values {
		label := ""
		if i < len(h.RowLabels) {
			label = h.RowLabels[i]
		}
		fmt.Fprintf(&b, "%-*s", labelW+1, label)
		for _, v := range row {
			idx := int((v - lo) / span * float64(len(shades)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(shades) {
				idx = len(shades) - 1
			}
			fmt.Fprintf(&b, " %s%6.2f", shades[idx], v)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "(scale: %s low %.2f … %s high %.2f, mean error in metres)\n",
		shades[0], lo, shades[len(shades)-1], hi)
	return b.String()
}
