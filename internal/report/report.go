// Package report renders experiment results as ASCII tables and figures
// (scatter plots, line plots, quantile tables) and exports raw data as CSV.
// Every table and figure in the paper has a textual counterpart here, so
// the whole evaluation regenerates in a terminal or a CI log.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table renders rows with aligned columns. The first row is the header.
func Table(w io.Writer, rows [][]string) error {
	if len(rows) == 0 {
		return nil
	}
	widths := make([]int, 0)
	for _, row := range rows {
		for i, cell := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	for ri, row := range rows {
		var b strings.Builder
		for i, cell := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-len(cell)))
		}
		line := strings.TrimRight(b.String(), " ")
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
		if ri == 0 {
			if _, err := fmt.Fprintln(w, strings.Repeat("-", lineWidth(widths))); err != nil {
				return err
			}
		}
	}
	return nil
}

func lineWidth(widths []int) int {
	total := 0
	for _, w := range widths {
		total += w
	}
	return total + 2*(len(widths)-1)
}

// Scatter renders an ASCII scatter plot of (x, y) points on a w×h grid
// with the given axis ranges. Denser cells render darker (· : * #).
func Scatter(out io.Writer, xs, ys []float64, xLo, xHi, yLo, yHi float64, w, h int, xLabel, yLabel string) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("report: scatter with %d x and %d y values", len(xs), len(ys))
	}
	if w < 2 || h < 2 || xHi <= xLo || yHi <= yLo {
		return fmt.Errorf("report: invalid scatter geometry")
	}
	grid := make([][]int, h)
	for i := range grid {
		grid[i] = make([]int, w)
	}
	for i := range xs {
		cx := int(float64(w) * (xs[i] - xLo) / (xHi - xLo))
		cy := int(float64(h) * (ys[i] - yLo) / (yHi - yLo))
		cx = clamp(cx, 0, w-1)
		cy = clamp(cy, 0, h-1)
		grid[h-1-cy][cx]++ // y grows upward
	}
	glyph := func(c int) byte {
		switch {
		case c == 0:
			return ' '
		case c == 1:
			return '.'
		case c <= 3:
			return ':'
		case c <= 8:
			return '*'
		default:
			return '#'
		}
	}
	if _, err := fmt.Fprintf(out, "%s\n", yLabel); err != nil {
		return err
	}
	for r := 0; r < h; r++ {
		row := make([]byte, w)
		for c := 0; c < w; c++ {
			row[c] = glyph(grid[r][c])
		}
		y := yHi - (float64(r)+0.5)*(yHi-yLo)/float64(h)
		if _, err := fmt.Fprintf(out, "%6.2f |%s|\n", y, row); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(out, "       %s\n", strings.Repeat("-", w+2)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(out, "       %-8.2f%s%8.2f  (%s)\n", xLo, strings.Repeat(" ", max(0, w-14)), xHi, xLabel)
	return err
}

func clamp(x, lo, hi int) int {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// ThicknessDistribution renders the paper's Figures 7/10: per dimension,
// the sorted region thicknesses as a quantile table.
func ThicknessDistribution(out io.Writer, byDim [][]int) error {
	rows := [][]string{{"dim", "n", "min", "p25", "median", "p75", "max"}}
	for d, ths := range byDim {
		if len(ths) == 0 {
			rows = append(rows, []string{fmt.Sprintf("d%d", d), "0", "-", "-", "-", "-", "-"})
			continue
		}
		sorted := append([]int(nil), ths...)
		sort.Ints(sorted)
		q := func(f float64) string {
			idx := int(f * float64(len(sorted)-1))
			return fmt.Sprint(sorted[idx])
		}
		rows = append(rows, []string{
			fmt.Sprintf("d%d", d), fmt.Sprint(len(sorted)),
			q(0), q(0.25), q(0.5), q(0.75), q(1),
		})
	}
	return Table(out, rows)
}

// Line renders one series as an ASCII line plot: x values must be
// ascending. Used for the efficiency-along-a-line figures (8 and 11).
func Line(out io.Writer, xs []int, ys []float64, yLo, yHi float64, h int, label string) error {
	if len(xs) != len(ys) {
		return fmt.Errorf("report: line with %d x and %d y values", len(xs), len(ys))
	}
	if len(xs) == 0 {
		return nil
	}
	w := len(xs)
	grid := make([][]byte, h)
	for i := range grid {
		grid[i] = make([]byte, w)
		for j := range grid[i] {
			grid[i][j] = ' '
		}
	}
	for i, y := range ys {
		cy := int(float64(h) * (y - yLo) / (yHi - yLo))
		cy = clamp(cy, 0, h-1)
		grid[h-1-cy][i] = '*'
	}
	if _, err := fmt.Fprintf(out, "%s\n", label); err != nil {
		return err
	}
	for r := 0; r < h; r++ {
		y := yHi - (float64(r)+0.5)*(yHi-yLo)/float64(h)
		if _, err := fmt.Fprintf(out, "%6.2f |%s|\n", y, string(grid[r])); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(out, "       x: %d .. %d (%d samples)\n", xs[0], xs[len(xs)-1], len(xs))
	return err
}

// CSV writes rows as comma-separated values, quoting cells that contain
// commas or quotes.
func CSV(w io.Writer, rows [][]string) error {
	for _, row := range rows {
		cells := make([]string, len(row))
		for i, c := range row {
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			cells[i] = c
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}
