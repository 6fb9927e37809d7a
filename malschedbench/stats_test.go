package main

import (
	"math"
	"testing"
	"time"

	"malsched/internal/server"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{
		{2400, 99}, {1000, 99}, // 1% of 1000 is exactly ten samples beyond
		{999, 95}, {200, 95},
		{199, 90}, {100, 90},
		{64, 90}, // too few for any candidate: falls back to p90
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := quantile(xs, tc.q); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
	// A failed request (+Inf) next to the quantile makes the quantile
	// infinite instead of NaN.
	if got := quantile([]float64{1, 2, math.Inf(1)}, 0.9); !math.IsInf(got, 1) {
		t.Errorf("quantile over a failed request = %v, want +Inf", got)
	}
	if got := quantile([]float64{1, 2, 3, math.Inf(1)}, 0.5); got != 2.5 {
		t.Errorf("median with one failed request = %v, want 2.5", got)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 40 * ms},
		{Name: "b", Parent: 0, Start: 30 * ms, End: 60 * ms},  // overlaps a
		{Name: "c", Parent: 0, Start: 50 * ms, End: 55 * ms},  // inside b
		{Name: "d", Parent: 0, Start: 90 * ms, End: 120 * ms}, // runs past root
		{Name: "a1", Parent: 1, Start: 15 * ms, End: 20 * ms},
	}
	got := selfTimes(spans)
	// root: children cover [10,60] and [90,100] = 60ms of 100ms.
	want := []time.Duration{40 * ms, 25 * ms, 30 * ms, 5 * ms, 30 * ms, 5 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}

func TestDueLatenciesCountGeneratorLag(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{0, 10 * ms, 20 * ms}
	// The generator released the second request 15ms late, and the third
	// failed.
	sent := []time.Duration{0, 25 * ms, 21 * ms}
	recv := []time.Duration{5 * ms, 30 * ms, 40 * ms}
	lat, lag := dueLatencies(due, sent, recv, []bool{true, true, false})
	if lat[0] != 5 || lat[1] != 20 || !math.IsInf(lat[2], 1) {
		t.Errorf("latencies = %v, want [5 20 +Inf]: measured from the due time, failures infinite", lat)
	}
	if lag[0] != 0 || lag[1] != 15 || lag[2] != 1 {
		t.Errorf("lag = %v, want [0 15 1]", lag)
	}
}

func TestCounterDiff(t *testing.T) {
	before := []byte(`{"schema_version": 2, "formulations": {"lazy": {"solves": 3}}, "cache_hit": 10, "cache_miss": 4}`)
	after := []byte(`{"schema_version": 2, "formulations": {"lazy": {"solves": 9}}, "cache_hit": 25, "cache_miss": 4, "shed_queue_full": 2}`)
	d, err := counterDiff(before, after)
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]float64{"cache_hit": 15, "cache_miss": 0, "shed_queue_full": 2, "schema_version": 0} {
		if d[k] != want {
			t.Errorf("diff[%s] = %v, want %v", k, d[k], want)
		}
	}
	if _, ok := d["formulations"]; ok {
		t.Error("nested section diffed as a counter")
	}
	if _, err := counterDiff([]byte(`{`), after); err == nil {
		t.Error("malformed /metrics accepted")
	}
}

func TestCheckAnswer(t *testing.T) {
	r := &request{n: 2, m: 4, fp: "abc"}
	good := func() *server.SolveResponseV2 {
		return &server.SolveResponseV2{
			SolveResponse: server.SolveResponse{Makespan: 10, LowerBound: 8, Guarantee: 1.25, ProvenRatio: 3, Alloc: []int{1, 4}},
			Fingerprint:   "abc", Tier: "paper",
		}
	}
	if msg := checkAnswer(r, good()); msg != "" {
		t.Fatalf("good answer rejected: %s", msg)
	}
	for name, mutate := range map[string]func(*server.SolveResponseV2){
		"short alloc":       func(a *server.SolveResponseV2) { a.Alloc = a.Alloc[:1] },
		"alloc above m":     func(a *server.SolveResponseV2) { a.Alloc[1] = 5 },
		"alloc zero":        func(a *server.SolveResponseV2) { a.Alloc[0] = 0 },
		"makespan NaN":      func(a *server.SolveResponseV2) { a.Makespan = math.NaN() },
		"below lower bound": func(a *server.SolveResponseV2) { a.Makespan = 7 },
		"over proven ratio": func(a *server.SolveResponseV2) { a.Guarantee = 3.5 },
		"wrong fingerprint": func(a *server.SolveResponseV2) { a.Fingerprint = "abd" },
	} {
		a := good()
		mutate(a)
		if checkAnswer(r, a) == "" {
			t.Errorf("%s: accepted", name)
		}
	}
	// A greedy answer carries no ratio promise.
	a := good()
	a.Tier, a.Guarantee = "greedy", 3.5
	if msg := checkAnswer(r, a); msg != "" {
		t.Errorf("greedy answer rejected: %s", msg)
	}
	// A delta request needs a delta label.
	if checkAnswer(&request{n: 2, m: 4, fp: "abc", delta: true}, good()) == "" {
		t.Error("delta answer without a label accepted")
	}
}
