package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile returns the q-quantile of an ascending slice by nearest rank:
// the smallest sample with at least q of the samples at or below it.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// quartiles returns the first quartile, median and third quartile of v the
// way Python's statistics.quantiles(v, n=4) does (exclusive method), which
// is what the acceptance spread is computed with. Fewer than two values
// return the single value three times.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, med, _ := quartiles(v)
	return med
}

// poissonSchedule draws n arrival offsets of a Poisson process with the
// given rate (events per second): exponential gaps, cumulated, then scaled
// so that the last arrival falls exactly at n/rate. Every schedule thus
// offers the same load over the same time, whatever the seed; given their
// number, Poisson arrivals in a window are uniform order statistics, which
// scaling preserves.
func poissonSchedule(rng *rand.Rand, n int, rate float64) []time.Duration {
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += rng.ExpFloat64()
		at[i] = t
	}
	scale := float64(n) / rate / t
	due := make([]time.Duration, n)
	for i, a := range at {
		due[i] = time.Duration(a * scale * float64(time.Second))
	}
	return due
}
