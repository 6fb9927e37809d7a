package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"malsched"
)

// workload is one traffic mix.
type workload struct {
	name string
	// openRate is the open loop's Poisson arrival rate in requests per
	// second: 18-26% of the closed-loop ops_per_s this benchmark measured
	// when it was written. At half of it, queueing behind Poisson bursts
	// set the median and the tail, and both varied from seed to seed more
	// than a change worth measuring moves them. serve_repeat's rate also
	// keeps its open loop under 1000 requests, so it reports p95: its p99
	// followed each seed's bursts and GC timing.
	openRate float64
	// closedRate is the closed-loop ops_per_s measured when the benchmark
	// was written. It sizes the closed loop's request count so the loop
	// lasts about closedShare of --seconds on that code; faster code
	// finishes the same requests sooner.
	closedRate float64
	// block, when set, rounds every request count to a whole number of
	// blocks, so each run holds every class of the mix in its proportion.
	block int
	// setup draws the inputs from the seed, starts the system, primes it
	// and warms it up.
	setup func(seed int64, c counts) (*env, error)
}

// Shares of --seconds spent in each measured phase of a serving workload.
const (
	closedShare = 0.4
	openShare   = 0.6
)

// counts sizes one run's request sequences.
type counts struct {
	closed, open, open2 int
	rate                float64 // the open loop's arrival rate
}

// counts sizes the measured phases. A serving workload runs a closed loop
// for throughput and an open loop for latency; batch_large is one closed
// loop. A traced run replaces them by the latency phase twice, untraced
// then traced, so the difference between the two is the tracing overhead.
func (w *workload) counts(seconds float64, trace bool) counts {
	if w.openRate == 0 {
		closed := int(seconds*w.closedRate + 0.5)
		if trace {
			return counts{closed: closed / 2, open2: closed / 2}
		}
		return counts{closed: closed}
	}
	round := func(x float64) int {
		b := max(w.block, 1)
		return max(1, int(x/float64(b)+0.5)) * b
	}
	open := round(openShare * seconds * w.openRate)
	if trace {
		return counts{open: open, open2: open, rate: w.openRate}
	}
	return counts{closed: round(closedShare * seconds * w.closedRate), open: open, rate: w.openRate}
}

// env is a set-up workload: the running system and the pre-generated
// inputs of the measured phases.
type env struct {
	h                   *harness // nil for batch_large
	closed, open, open2 []request
	due, due2           []time.Duration
	// bases resolves delta requests' base fingerprints for the replay.
	bases map[string]*malsched.Instance
	// replay holds the requests the traced run's stage replay runs.
	replay []request

	// batch_large only.
	pool      *malsched.Pool
	instances []*malsched.Instance
	rounds    int        // rounds per caller, untraced loop
	rounds2   int        // rounds per caller, traced loop
	order     *rand.Rand // draws each round's instance order
}

func (e *env) close() {
	if e.h != nil {
		e.h.close()
	}
	if e.pool != nil {
		e.pool.Close()
	}
}

var workloads = []*workload{
	{name: "serve_repeat", openRate: 80, closedRate: 440, setup: setupRepeat},
	{name: "serve_fresh", openRate: 10, closedRate: 39, block: freshBlock, setup: setupFresh},
	{name: "serve_delta", openRate: 40, closedRate: 200, setup: setupDelta},
	{name: "batch_large", closedRate: 3.3, setup: setupBatch},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// prime sends reqs through a closed loop and fails on any failed or shed
// answer.
func prime(h *harness, reqs []request) error {
	ans, _ := h.closedLoop(reqs, clients)
	for i := range ans {
		if !ans[i].ok() {
			return fmt.Errorf("priming request %d: %s", i, describeFailure(&ans[i]))
		}
	}
	return nil
}

// setupRepeat: a hot set of 64 instances, solved once at set-up, then
// requested Zipf-distributed so nearly every measured request is a hit.
func setupRepeat(seed int64, c counts) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	hot := make([]request, 0, 64)
	for _, s := range repeatShapes() {
		hot = append(hot, newRequest(s.instance(rng)))
	}
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(len(hot)-1))
	seq := func(k int) []request {
		out := make([]request, k)
		for i := range out {
			out[i] = hot[zipf.Uint64()]
		}
		return out
	}
	e := &env{closed: seq(c.closed), open: seq(c.open), open2: seq(c.open2), replay: hot}
	e.due = poissonDue(rng, c.rate, c.open)
	e.due2 = poissonDue(rng, c.rate, c.open2)
	h, err := startServer()
	if err != nil {
		return nil, err
	}
	e.h = h
	// Solve the hot set (misses), then ask for it once more (hits) so the
	// measured phases start with a full cache and warm connections.
	for pass := 0; pass < 2; pass++ {
		if err := prime(h, hot); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// setupFresh: never-seen instances, block by block; set-up only warms the
// pool workers.
func setupFresh(seed int64, c counts) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	seq := func(k int) []request {
		out := make([]request, k)
		for i, in := range freshInstances(rng, k) {
			out[i] = newRequest(in)
			out[i].mass = segmentMass(in)
		}
		return out
	}
	// Warm-up: one never-measured instance of every class but the m=64
	// chains, whose seconds-long solves would dominate set-up time.
	var warm []request
	for _, k := range freshClasses {
		if k.family != "chain" || k.m != 64 {
			s := shape{family: k.family, n: k.lo, m: k.m, tasks: k.tasks}
			warm = append(warm, newRequest(s.instance(rng)))
		}
	}
	e := &env{closed: seq(c.closed), open: seq(c.open), open2: seq(c.open2)}
	// The replay runs one whole block of the traced phase, so that every
	// class, the stalling chains included, is replayed.
	e.replay = e.open2[:min(freshBlock, len(e.open2))]
	e.due = poissonDue(rng, c.rate, c.open)
	e.due2 = poissonDue(rng, c.rate, c.open2)
	h, err := startServer()
	if err != nil {
		return nil, err
	}
	e.h = h
	if err := prime(h, warm); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// deltaWarmups is how many never-measured delta requests serve_delta sends
// at set-up after priming its bases.
const deltaWarmups = 32

// setupDelta: base+edits requests against bases primed at set-up.
func setupDelta(seed int64, c counts) (*env, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &env{bases: map[string]*malsched.Instance{}}
	fps := map[*malsched.Instance]string{}
	var baseReqs []request
	draw := func(s shape, k int) []*malsched.Instance {
		out := make([]*malsched.Instance, k)
		for i := range out {
			out[i] = s.instance(rng)
			q := newRequest(out[i])
			baseReqs = append(baseReqs, q)
			fps[out[i]] = q.fp
			e.bases[q.fp] = out[i]
		}
		return out
	}
	small, large := draw(deltaSmallBase, deltaSmallBases), draw(deltaLargeBase, deltaLargeBases)
	seq := func(k int) []request {
		out := make([]request, k)
		for i := range out {
			out[i] = deltaRequest(rng, i, small, large, fps)
		}
		return out
	}
	warm := seq(deltaWarmups)
	e.closed, e.open, e.open2 = seq(c.closed), seq(c.open), seq(c.open2)
	// The replay runs the traced phase's first 48 requests: a quarter of
	// them edit large bases, which re-solve cold and so must reproduce the
	// served makespans bit for bit.
	e.replay = e.open2[:min(48, len(e.open2))]
	e.due = poissonDue(rng, c.rate, c.open)
	e.due2 = poissonDue(rng, c.rate, c.open2)
	h, err := startServer()
	if err != nil {
		return nil, err
	}
	e.h = h
	if err := prime(h, baseReqs); err != nil {
		e.close()
		return nil, err
	}
	if err := prime(h, warm); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

// setupBatch: the library pool, no HTTP. Each caller goroutine runs
// about c.closed/(4*clients) rounds over the four instances (at least
// one). There is no warm-up: growing a worker's buffers on its first
// solve costs milliseconds against solves of a second, and a user of a
// new pool pays it too.
func setupBatch(seed int64, c counts) (*env, error) {
	e := &env{instances: batchInstances(), pool: malsched.NewPool(clients), order: rand.New(rand.NewSource(seed))}
	for _, in := range e.instances {
		e.replay = append(e.replay, request{body: solveBody(in), n: len(in.Tasks), m: in.M, fp: in.Fingerprint()})
	}
	e.rounds = max(1, (c.closed+2*clients)/(4*clients))
	e.rounds2 = max(1, (c.open2+2*clients)/(4*clients))
	return e, nil
}

// call is one Pool.Solve in batch_large.
type call struct {
	inst       int
	start, end time.Duration
	res        *malsched.Result
	err        error
}

// batchLoop makes clients*rounds rounds of calls, each round visiting
// every instance once in a seeded order, and runs them from `clients`
// caller goroutines that each take the next call when their previous one
// returned (a closed loop). Every result is checked; a failed call keeps
// its error.
func (e *env) batchLoop(rounds int) ([]call, time.Duration) {
	k := len(e.instances)
	calls := make([]call, 0, clients*rounds*k)
	for r := 0; r < clients*rounds; r++ {
		for _, v := range e.order.Perm(k) {
			calls = append(calls, call{inst: v})
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(calls) {
					return
				}
				c := &calls[i]
				in := e.instances[c.inst]
				c.start = time.Since(t0)
				c.res, c.err = e.pool.Solve(context.Background(), in)
				c.end = time.Since(t0)
				if c.err == nil {
					c.err = checkResult(in, c.res)
				}
			}
		}()
	}
	wg.Wait()
	return calls, time.Since(t0)
}

// checkResult applies the answer checks to a library result, plus a full
// feasibility check of the schedule.
func checkResult(in *malsched.Instance, res *malsched.Result) error {
	if msg := checkSolution(len(in.Tasks), in.M, res.Alloc, res.Makespan, res.LowerBound,
		res.Guarantee, res.ProvenRatio, true); msg != "" {
		return errors.New(msg)
	}
	return malsched.Verify(in, res)
}
