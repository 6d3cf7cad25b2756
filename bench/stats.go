package main

import "sort"

// summary is how every timing in a result is reported: the median is the
// value compared between commits, the quartiles say how far a single
// round strays from it, and n is the sample count behind both.
type summary struct {
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	N      int     `json:"n"`
}

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func summarize(values []float64) summary {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	return summary{
		Median: quantile(sorted, 0.5),
		P25:    quantile(sorted, 0.25),
		P75:    quantile(sorted, 0.75),
		N:      len(sorted),
	}
}

func median(values []float64) float64 { return summarize(values).Median }

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / s.Median
}
