package eval

import (
	"math"
	"strings"
	"testing"
)

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Mean != 2.5 {
		t.Fatalf("Mean = %g, want 2.5", s.Mean)
	}
	if s.Worst != 4 {
		t.Fatalf("Worst = %g, want 4", s.Worst)
	}
	if s.Median != 2.5 {
		t.Fatalf("Median = %g, want 2.5", s.Median)
	}
	if s.N != 4 {
		t.Fatalf("N = %d", s.N)
	}
	// Errors maps predictions to distances in input order; an exact hit
	// counts as a zero error in the mean.
	dist := func(a, b int) float64 { return math.Abs(float64(a - b)) }
	s = Summarize(Errors([]int{5, 0, 2}, []int{0, 0, 0}, dist))
	if s.Mean != (5+0+2)/3.0 || s.Worst != 5 || s.N != 3 {
		t.Fatalf("stats of errors 5, 0, 2 = %+v, want mean 7/3, worst 5", s)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Mean != 0 || s.Worst != 0 || s.N != 0 {
		t.Fatalf("empty stats %+v", s)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Worst != 7 || s.Median != 7 || s.P95 != 7 {
		t.Fatalf("single stats %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Summarize sorted the caller's slice")
	}
}

func TestP95(t *testing.T) {
	errs := make([]float64, 100)
	for i := range errs {
		errs[i] = float64(i)
	}
	s := Summarize(errs)
	if math.Abs(s.P95-94.05) > 0.01 {
		t.Fatalf("P95 = %g, want ≈94.05", s.P95)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Title: "T", Headers: []string{"a", "bbbb"}}
	tb.AddRow("xx", "y")
	out := tb.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "a") || !strings.Contains(out, "xx") {
		t.Fatalf("table output missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title, header, rule, row
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
}

func TestHeatmapRendering(t *testing.T) {
	h := Heatmap{
		Title:     "H",
		RowLabels: []string{"r1", "r2"},
		ColLabels: []string{"c1", "c2"},
		Values:    [][]float64{{1, 2}, {3, 4}},
	}
	out := h.String()
	if !strings.Contains(out, "r1") || !strings.Contains(out, "c2") {
		t.Fatalf("heatmap missing labels:\n%s", out)
	}
	if !strings.Contains(out, "1.00") || !strings.Contains(out, "4.00") {
		t.Fatalf("heatmap missing values:\n%s", out)
	}
	// Lowest value gets the lightest shade, highest the darkest.
	if !strings.Contains(out, "·  1.00") || !strings.Contains(out, "█  4.00") {
		t.Fatalf("heatmap shading wrong:\n%s", out)
	}
}

func TestHeatmapConstantValues(t *testing.T) {
	h := Heatmap{RowLabels: []string{"r"}, ColLabels: []string{"c"}, Values: [][]float64{{5}}}
	out := h.String() // must not divide by zero
	if !strings.Contains(out, "5.00") {
		t.Fatalf("constant heatmap broken:\n%s", out)
	}
}
