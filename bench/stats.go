package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by linear
// interpolation between the two nearest order statistics. It is the
// one estimator behind every median, quartile and percentile the
// benchmark prints, so numbers in different tables agree.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// medianMs is the median of durations, in milliseconds.
func medianMs(d []time.Duration) float64 {
	ms := make([]float64, len(d))
	for i, v := range d {
		ms[i] = float64(v) / 1e6
	}
	return median(ms)
}

// summary is how one metric is reported: the median of its per-slice
// values with the dispersion a reader needs to judge it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	N      int     `json:"n"`
}

func summarize(v []float64) summary {
	s := sortedCopy(v)
	if len(s) == 0 {
		return summary{}
	}
	return summary{
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
		N:      len(s),
	}
}

// spread is the interquartile range as a share of the median: the
// benchmark's measure of how steady a metric is.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return math.Inf(1)
	}
	return math.Abs((s.Q3 - s.Q1) / s.Median)
}
