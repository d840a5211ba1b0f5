package main

import (
	"math"
	"sort"
	"time"
)

// summary is a sample's median with its first and third quartiles, by
// the same rules as Python's statistics.median and
// statistics.quantiles(values, n=4) (the "exclusive" method), so the
// spreads printed here match those computed over the printed values.
type summary struct {
	Median float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(values []float64) summary {
	n := len(values)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n == 1 {
		return summary{Median: med, Q1: med, Q3: med, N: 1}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{Median: med, Q1: q(1), Q3: q(3), N: n}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		if s.Q3 == s.Q1 {
			return 0
		}
		return math.Inf(1)
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of ds,
// which it sorts in place.
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(math.Ceil(q * float64(len(ds))))
	if rank < 1 {
		rank = 1
	}
	return ds[rank-1]
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
