// Package stats provides the small statistical toolkit used by the
// experiment drivers: medians (the paper records the median of 10
// repetitions), a confusion matrix for Experiment 3, and running
// summaries.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Median returns the median of xs (the mean of the two middle elements
// for even lengths). It panics on an empty slice and does not modify xs.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		panic("stats: median of empty slice")
	}
	tmp := append([]float64(nil), xs...)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Summary holds running aggregate statistics.
type Summary struct {
	N          int
	Min, Max   float64
	sum, sumSq float64
}

// Add folds x into the summary.
func (s *Summary) Add(x float64) {
	if s.N == 0 || x < s.Min {
		s.Min = x
	}
	if s.N == 0 || x > s.Max {
		s.Max = x
	}
	s.N++
	s.sum += x
	s.sumSq += x * x
}

// Mean returns the mean of the added values (0 for an empty summary).
func (s *Summary) Mean() float64 {
	if s.N == 0 {
		return 0
	}
	return s.sum / float64(s.N)
}

// StdDev returns the population standard deviation (0 for fewer than two
// values).
func (s *Summary) StdDev() float64 {
	if s.N < 2 {
		return 0
	}
	m := s.Mean()
	v := s.sumSq/float64(s.N) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// ConfusionMatrix accumulates binary classification outcomes, in the
// layout of the paper's Tables 1 and 2 (actual in rows, predicted in
// columns).
type ConfusionMatrix struct {
	TN, FP, FN, TP int
}

// Add records one (actual, predicted) outcome.
func (c *ConfusionMatrix) Add(actual, predicted bool) {
	switch {
	case actual && predicted:
		c.TP++
	case actual && !predicted:
		c.FN++
	case !actual && predicted:
		c.FP++
	default:
		c.TN++
	}
}

// Total returns the number of recorded outcomes.
func (c *ConfusionMatrix) Total() int { return c.TN + c.FP + c.FN + c.TP }

// Recall returns TP/(TP+FN): the fraction of actual anomalies that were
// predicted (the paper's "x% of the anomalies could have been
// predicted"). It returns 0 when there are no actual positives.
func (c *ConfusionMatrix) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Precision returns TP/(TP+FP): the fraction of predicted anomalies that
// were actual (the paper's "x% of the predicted anomalies were actual").
// It returns 0 when there are no predicted positives.
func (c *ConfusionMatrix) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Accuracy returns (TP+TN)/Total, or 0 for an empty matrix.
func (c *ConfusionMatrix) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(t)
}

// String renders the matrix in the paper's table layout.
func (c *ConfusionMatrix) String() string {
	return fmt.Sprintf(
		"            Predicted\n"+
			"            No      Yes     Total\n"+
			"Actual No   %-7d %-7d %d\n"+
			"       Yes  %-7d %-7d %d\n"+
			"       Total %-6d %-7d %d\n",
		c.TN, c.FP, c.TN+c.FP,
		c.FN, c.TP, c.FN+c.TP,
		c.TN+c.FN, c.FP+c.TP, c.Total())
}
