package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics (the "linear" rule of numpy and
// of Python's statistics.quantiles with method="inclusive"). xs need not be
// sorted; it is not modified. NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	if math.IsInf(s[hi], 1) {
		return s[hi] // a failed request sits at or next to the quantile
	}
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []int{99, 95, 90}

// tailPercentile picks the reported tail percentile for a sample of n
// latencies: the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it, so the tail figure rests on more than a handful of
// requests. Below 100 samples no candidate qualifies and it falls back to
// p90; the run's notes then say how many samples lie beyond.
func tailPercentile(n int) int {
	for _, p := range tailPercentiles {
		if n*(100-p) >= 10*100 {
			return p
		}
	}
	return tailPercentiles[len(tailPercentiles)-1]
}

// dueLatencies turns an open loop's per-request timestamps into latencies
// measured from each request's due time, not from when it was sent: a
// generator that falls behind (or a client connection that is still busy)
// delays the send, and that delay is part of what the user waited. It
// also returns how late each request left the generator (send - due).
func dueLatencies(due, sent, recv []time.Duration, ok []bool) (lat, lag []float64) {
	lat = make([]float64, len(due))
	lag = make([]float64, len(due))
	for i := range due {
		lag[i] = ms(sent[i] - due[i])
		if !ok[i] {
			lat[i] = math.Inf(1)
			continue
		}
		lat[i] = ms(recv[i] - due[i])
	}
	return lat, lag
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one traced interval. Parent is the index of the span that caused
// it (-1 for a root); spans of one replayed request share a root.
type span struct {
	Name       string
	Parent     int
	Start, End time.Duration
	AllocBytes uint64
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children may overlap each other
// (concurrent work under one parent), so the covered part is the measure of
// the union of the children's intervals clipped to the parent, not the sum
// of their durations.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := spans[k].Start, spans[k].End
			if a < s.Start {
				a = s.Start
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB time.Duration
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				if v.b > curB {
					curB = v.b
				}
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// counterDiff returns after - before for every numeric top-level field of
// two /metrics documents. A counter absent before counts from zero (expvar
// publishes a counter on its first increment); nested sections such as
// "formulations" and non-numeric fields are skipped.
func counterDiff(before, after []byte) (map[string]float64, error) {
	var b, a map[string]any
	if err := json.Unmarshal(before, &b); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	if err := json.Unmarshal(after, &a); err != nil {
		return nil, fmt.Errorf("decoding /metrics: %w", err)
	}
	out := make(map[string]float64)
	for k, v := range a {
		av, ok := v.(float64)
		if !ok {
			continue
		}
		bv, _ := b[k].(float64)
		out[k] = av - bv
	}
	return out, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
