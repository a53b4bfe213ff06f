package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// metric is one reported number with its unit and sample count.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// report collects metrics in print order. A percentile with too few
// samples beyond it is a benchmark sizing error: op counts are fixed by the
// log, so it would fail identically on every run.
type report struct {
	metrics []metric
	errs    []string
}

func (r *report) add(name, unit string, value float64, n int) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.errs = append(r.errs, fmt.Sprintf("%s: no value (%d samples)", name, n))
		value = 0
	}
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

// pct adds the q-quantile (nearest rank) of ds, scaled to unit.
func (r *report) pct(name, unit string, ds []time.Duration, q float64) {
	v, ok := quantile(ds, q)
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf("%s: %d samples leave fewer than %d beyond p%g",
			name, len(ds), minBeyond, q*100))
	}
	r.add(name, unit, scale(v, unit), len(ds))
}

// pctRounds adds the q-quantile of a measured phase. Consecutive rounds are
// pooled into as many groups as still leave minBeyond samples beyond the
// quantile in every group, and the value is the median of the groups'
// quantiles: with one group it is the phase's own quantile, with more, one
// disturbed stretch of the run moves it less.
func (r *report) pctRounds(name, unit string, res *result, pick func(*result) []time.Duration, q float64) {
	n := len(pick(res))
	groups := max(min(len(res.rounds), int(float64(n)*(1-q))/(minBeyond+1)), 1)
	var per []float64
	for g := 0; g < groups; g++ {
		var ds []time.Duration
		for _, part := range res.rounds[len(res.rounds)*g/groups : len(res.rounds)*(g+1)/groups] {
			ds = append(ds, pick(part)...)
		}
		v, ok := quantile(ds, q)
		if !ok {
			r.pct(name, unit, pick(res), q)
			return
		}
		per = append(per, scale(v, unit))
	}
	r.add(name, unit, medianFloat(per), n)
}

// quantile returns the nearest-rank q-quantile and whether at least
// minBeyond samples lie above its rank.
func quantile(ds []time.Duration, q float64) (time.Duration, bool) {
	if len(ds) == 0 {
		return 0, false
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s)-1-i >= minBeyond
}

func scale(d time.Duration, unit string) float64 {
	switch unit {
	case "s":
		return d.Seconds()
	case "ms":
		return float64(d.Nanoseconds()) / 1e6
	case "us":
		return float64(d.Nanoseconds()) / 1e3
	}
	panic("unknown time unit " + unit)
}

// medianFloat is the median of xs (NaN when empty).
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}
