package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"malsched"
	"malsched/internal/solver"
)

// perLayer lists the per-layer metrics in a traced run's result line.
var perLayer = func() []string {
	out := []string{
		"server.elapsed_ms", "server.outside_ms", "server.cache_hit_frac", "server.cache_shared_frac",
		"server.shed_count", "server.paper_frac", "server.degraded_frac", "server.delta_warm_frac",
		"engine.wait_ms", "engine.busy_frac", "driver.lag_p99_ms", "trace.overhead_ms",
		"replay.root_ms", "allot.lazy_frac", "allot.mincut_frac",
		"lp.phase1_ms", "lp.cuts", "lp.rounds",
		"flow.phase1_ms", "flow.breakpoints", "flow.augmentations", "flow.stall_count",
	}
	for _, s := range stages {
		out = append(out, s.metric, s.name+".alloc_kb", s.name+".share")
	}
	return out
}()

// runUntraced measures the end-to-end metrics.
func runUntraced(w *workload, seed int64, seconds float64) (*result, error) {
	c := w.counts(seconds, false)
	e, setupS, err := setupMedian(w, seed, c, setupRepeats)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := &result{metrics: map[string]float64{"setup_s": setupS}}
	if e.h == nil {
		runBatch(e, r)
		return r, nil
	}

	before, err := e.h.counters()
	if err != nil {
		return nil, err
	}
	probe := startMemProbe()
	closedAns, wall := e.h.closedLoop(e.closed, clients)
	openAns, _ := e.h.openLoop(e.open, e.due, clients, nil)
	peakMB, allocBytes := probe.finish()
	after, err := e.h.counters()
	if err != nil {
		return nil, err
	}
	diff, err := counterDiff(before, after)
	if err != nil {
		return nil, err
	}

	var closed, all tally
	closed.add(e.closed, closedAns)
	all.add(e.closed, closedAns)
	all.add(e.open, openAns)
	r.attempted, r.failed = all.attempted, all.failed
	if all.failed > 0 {
		r.fail("%d of %d requests failed; first: %s", all.failed, all.attempted, all.firstFailure)
	}
	certify(w, e, r, &all, diff)

	lat, _ := latenciesMS(openAns)
	tailP := tailPercentile(len(lat))
	r.metrics["ops_per_s"] = float64(closed.ok) / wall.Seconds()
	r.metrics["latency_p50_ms"] = median(lat)
	r.metrics["latency_tail_ms"] = quantile(lat, float64(tailP)/100)
	r.metrics["guarantee_mean"] = all.guaranteeSum / float64(all.paper)
	r.metrics["heap_peak_mb"] = peakMB
	r.metrics["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(all.attempted)
	r.metrics["fail_frac"] = float64(all.failed) / float64(all.attempted)
	r.metrics["shed_frac"] = float64(all.shed) / float64(all.attempted)
	r.metrics["degraded_frac"] = float64(all.degraded) / float64(all.ok)
	r.notes = append(r.notes,
		fmt.Sprintf("closed loop: %d requests from %d clients in %.2fs", len(e.closed), clients, wall.Seconds()),
		fmt.Sprintf("open loop: %d requests at %.0f/s; latency_tail_ms is p%d", len(e.open), w.openRate, tailP))
	return r, nil
}

// certify checks that the workload ran the path its name claims, from its
// inputs and from answers every later version must also give. The server's
// own choices (warm or cold delta, phase-1 formulation) are reported per
// layer, not certified: later versions may change them.
func certify(w *workload, e *env, r *result, t *tally, diff map[string]float64) {
	switch w.name {
	case "serve_repeat":
		if frac := float64(t.hits) / float64(t.ok); frac < 0.95 {
			r.fail("serve_repeat: %.3f of answers were cache hits, want >= 0.95", frac)
		}
	case "serve_fresh":
		if t.hits > 0 || diff["cache_hit"] > 0 {
			r.fail("serve_fresh: %d cache hits, want none", t.hits)
		}
		below, above := 0, 0
		for _, set := range [][]request{e.closed, e.open, e.open2} {
			for _, q := range set {
				if q.mass >= mincutMassThreshold {
					above++
				} else {
					below++
				}
			}
		}
		if below == 0 || above == 0 {
			r.fail("serve_fresh: %d inputs below and %d above segment mass %d, want both", below, above, mincutMassThreshold)
		}
	case "serve_delta":
		// Every request is base+edits by construction (deltaRequest) with
		// at most maxEdits edits; each answer must carry a delta label
		// (checkAnswer).
		if t.deltas != t.ok {
			r.fail("serve_delta: %d of %d answers were delta answers", t.deltas, t.ok)
		}
	}
}

// runBatch measures batch_large's closed loop into r.
func runBatch(e *env, r *result) {
	probe := startMemProbe()
	calls, wall := e.batchLoop(e.rounds)
	peakMB, allocBytes := probe.finish()
	var lat []float64
	okCalls, guarantee := 0, 0.0
	for _, c := range calls {
		r.attempted++
		if c.err != nil {
			if r.failed == 0 {
				r.fail("Pool.Solve on %s: %v", describe(e.instances[c.inst]), c.err)
			}
			r.failed++
			lat = append(lat, ms(c.end-c.start)) // counted as a miss below
			continue
		}
		okCalls++
		guarantee += c.res.Guarantee
		lat = append(lat, ms(c.end-c.start))
	}
	if httpRequests.Load() != 0 {
		r.fail("batch_large sent %d HTTP requests, want none", httpRequests.Load())
	}
	tailP := tailPercentile(len(lat))
	r.metrics["ops_per_s"] = float64(okCalls) / wall.Seconds()
	r.metrics["latency_p50_ms"] = median(lat)
	r.metrics["latency_tail_ms"] = quantile(lat, float64(tailP)/100)
	r.metrics["guarantee_mean"] = guarantee / float64(okCalls)
	r.metrics["heap_peak_mb"] = peakMB
	r.metrics["alloc_kb_per_op"] = float64(allocBytes) / 1024 / float64(len(calls))
	r.metrics["fail_frac"] = float64(r.failed) / float64(r.attempted)
	r.metrics["shed_frac"] = 0
	r.metrics["degraded_frac"] = 0
	r.notes = append(r.notes, fmt.Sprintf("closed loop: %d Pool.Solve calls from %d callers in %.2fs; latency_tail_ms is p%d",
		len(calls), clients, wall.Seconds(), tailP))
	for i, in := range e.instances {
		r.notes = append(r.notes, fmt.Sprintf("instance %d: %s", i, describe(in)))
	}
}

// runTraced measures the per-layer metrics: the latency phase untraced,
// then traced, then the stage replay.
func runTraced(w *workload, seed int64, seconds float64, outDir string) (*result, error) {
	c := w.counts(seconds, true)
	e, _, err := setupMedian(w, seed, c, 1)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := &result{metrics: map[string]float64{}}
	for _, k := range perLayer {
		r.metrics[k] = 0 // metrics a workload has no layer for read 0
	}

	// served maps fingerprints to the makespans of served paper-tier
	// answers that came from a full, non-degraded solve, which the replay
	// must reproduce bit for bit.
	served := map[string]float64{}
	replayReqs := e.replay
	var cold map[string]float64 // fingerprint -> server cold_ms of a full-solve miss
	var doc any
	// busy turns the replay's solo solve times into engine.busy_frac.
	var busy func(solo []float64) float64
	if e.h == nil {
		untraced, _ := e.batchLoop(e.rounds)
		traced, wall := e.batchLoop(e.rounds2)
		var latU, latT []float64
		for _, cl := range untraced {
			latU = append(latU, ms(cl.end-cl.start))
		}
		var spans []span
		for _, cl := range append(untraced, traced...) {
			r.attempted++
			if cl.err != nil {
				r.failed++
				r.fail("Pool.Solve on %s: %v", describe(e.instances[cl.inst]), cl.err)
			}
		}
		for _, cl := range traced {
			latT = append(latT, ms(cl.end-cl.start))
			spans = append(spans, span{Name: "pool.solve", Parent: -1, Start: cl.start, End: cl.end})
			if cl.err == nil {
				served[e.replay[cl.inst].fp] = cl.res.Makespan
			}
		}
		r.metrics["trace.overhead_ms"] = median(latT) - median(latU)
		busy = func(solo []float64) float64 {
			// Solo solve time of every traced call over the workers' wall
			// time.
			total := 0.0
			for _, cl := range traced {
				total += solo[cl.inst]
			}
			return total / (float64(clients) * ms(wall))
		}
		doc = spans
	} else {
		ansU, _ := e.h.openLoop(e.open, e.due, clients, nil)
		before, err := e.h.counters()
		if err != nil {
			return nil, err
		}
		tr := &httpTrace{}
		ansT, wall := e.h.openLoop(e.open2, e.due2, clients, tr)
		after, err := e.h.counters()
		if err != nil {
			return nil, err
		}
		diff, err := counterDiff(before, after)
		if err != nil {
			return nil, err
		}
		var all tally
		all.add(e.open, ansU)
		all.add(e.open2, ansT)
		r.attempted, r.failed = all.attempted, all.failed
		if all.failed > 0 {
			r.fail("%d of %d requests failed; first: %s", all.failed, all.attempted, all.firstFailure)
		}
		certify(w, e, r, &all, diff)
		latU, _ := latenciesMS(ansU)
		latT, lag := latenciesMS(ansT)
		r.metrics["trace.overhead_ms"] = median(latT) - median(latU)
		r.metrics["driver.lag_p99_ms"] = quantile(lag, 0.99)
		httpLayer(r, e.open2, ansT, diff)

		cold = map[string]float64{}
		fullMisses := 0
		for i := range ansT {
			a, q := &ansT[i], &e.open2[i]
			if !a.ok() {
				continue
			}
			// A warm delta answer started phase 1 from a transplanted
			// basis; every other answer came from a full solve, as the
			// replay's does.
			if a.resp.Delta == "warm" {
				continue
			}
			if a.resp.Cache == "miss" {
				cold[q.fp] = a.resp.ColdMS
				fullMisses++
			}
			if a.resp.Tier == "paper" && !a.resp.Degraded {
				served[q.fp] = a.resp.Makespan
			}
		}
		busy = func(solo []float64) float64 {
			// The sampled full-solve misses' mean solo solve time, times
			// the full-solve misses served, over the workers' wall time.
			var missSolo []float64
			for k, q := range replayReqs {
				if _, ok := cold[q.fp]; ok {
					missSolo = append(missSolo, solo[k])
				}
			}
			if len(missSolo) == 0 {
				return 0
			}
			return mean(missSolo) * float64(fullMisses) / (float64(clients) * ms(wall))
		}
		doc = tr.spans
	}

	rep, err := replay(replayReqs, e.bases)
	if err != nil {
		return nil, err
	}
	for k, v := range rep.sum.metrics {
		r.metrics[k] = v
	}
	r.metrics["engine.busy_frac"] = busy(rep.sum.solo)
	var waits []float64
	checked := 0
	for k, q := range replayReqs {
		got := rep.runs[k]
		if got.stalled {
			continue
		}
		if c, ok := cold[got.fingerprint]; ok {
			waits = append(waits, c-rep.sum.solo[k])
		}
		if want, ok := served[got.fingerprint]; ok {
			checked++
			if got.makespan != want {
				r.fail("replay makespan %v differs from the served %v (request %d, n=%d m=%d)", got.makespan, want, k, q.n, q.m)
			}
		}
	}
	if checked == 0 {
		r.fail("no served paper-tier answer to compare the replay against")
	}
	if len(waits) > 0 {
		r.metrics["engine.wait_ms"] = median(waits)
	}
	r.notes = append(r.notes, fmt.Sprintf("replayed %d requests; %d makespans compared bit for bit with the served answers", len(replayReqs), checked))
	if err := writeTrace(outDir, w.name, seed, doc, rep.tracer.spans); err != nil {
		return nil, err
	}
	return r, nil
}

// httpLayer derives the HTTP-phase layer metrics from the traced answers
// and the server's counters.
func httpLayer(r *result, reqs []request, ans []answer, diff map[string]float64) {
	var elapsed, outside []float64
	var t tally
	t.add(reqs, ans)
	for i := range ans {
		a := &ans[i]
		if !a.ok() {
			continue
		}
		elapsed = append(elapsed, a.resp.ElapsedMS)
		outside = append(outside, ms(a.recv-a.sent)-a.resp.ElapsedMS)
	}
	lookups := diff["cache_hit"] + diff["cache_miss"] + diff["cache_shared"] + diff["cache_bypass"]
	r.metrics["server.elapsed_ms"] = median(elapsed)
	r.metrics["server.outside_ms"] = median(outside)
	r.metrics["server.cache_hit_frac"] = diff["cache_hit"] / lookups
	r.metrics["server.cache_shared_frac"] = diff["cache_shared"] / lookups
	r.metrics["server.shed_count"] = diff["shed_queue_full"] + diff["shed_deadline"]
	r.metrics["server.paper_frac"] = float64(t.paper) / float64(t.ok)
	r.metrics["server.degraded_frac"] = float64(t.degraded) / float64(t.ok)
	if t.deltas > 0 {
		r.metrics["server.delta_warm_frac"] = float64(t.deltaWarm) / float64(t.deltas)
	}
}

type replayRun struct {
	tracer *tracer
	runs   []replayed
	sum    replaySummary
}

// replay runs the stage replay single-threaded on one solver workspace,
// after an untimed pass over the first few requests that grows the
// workspace's buffers as a pool worker's would be.
func replay(reqs []request, bases map[string]*malsched.Instance) (*replayRun, error) {
	ws := solver.NewWorkspace()
	warm := newTracer()
	for _, q := range reqs[:min(4, len(reqs))] {
		if _, err := replayOne(warm, q.body, bases, ws); err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
	}
	rr := &replayRun{tracer: newTracer()}
	for _, q := range reqs {
		got, err := replayOne(rr.tracer, q.body, bases, ws)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		rr.runs = append(rr.runs, got)
	}
	rr.sum = summarizeReplay(rr.tracer, rr.runs)
	return rr, nil
}

// writeTrace writes the run's spans as one JSON document.
func writeTrace(dir, workload string, seed int64, load any, replaySpans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "load": load, "replay": replaySpans})
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s_seed%d.json", workload, seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
