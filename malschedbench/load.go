package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"malsched/internal/server"
)

// harness is an in-process malschedd: server.New with the default Config
// behind a loopback listener, and a client whose connection pool is capped
// at the benchmark's concurrency.
type harness struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan struct{} // closed when hs.Serve returns
}

func startServer() (*harness, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	h := &harness{
		srv: server.New(server.Config{}),
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		}},
		served: make(chan struct{}),
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() {
		defer close(h.served)
		h.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return h, nil
}

// close stops the listener, waits for in-flight requests, and releases the
// solver pool.
func (h *harness) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	h.hs.Shutdown(ctx) // a timeout here leaves nothing of ours running but the pool, closed next
	<-h.served
	h.client.CloseIdleConnections()
	h.srv.Close()
}

// httpRequests counts every request the benchmark sends, so batch_large
// can certify it ran without HTTP.
var httpRequests atomic.Int64

func (h *harness) post(body []byte) (int, []byte, error) {
	httpRequests.Add(1)
	resp, err := h.client.Post(h.url+"/v2/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// counters fetches the server's /metrics document.
func (h *harness) counters() ([]byte, error) {
	resp, err := h.client.Get(h.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("fetching /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("fetching /metrics: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// answer is one request's outcome.
type answer struct {
	status int
	err    error  // transport error
	check  string // the first failed answer check, "" when all passed
	resp   server.SolveResponseV2
	// Timestamps relative to the phase start. due and dispatched are set by
	// the open loop only.
	due, dispatched, sent, recv time.Duration
}

func (a *answer) shed() bool {
	return a.status == http.StatusTooManyRequests || a.status == http.StatusServiceUnavailable
}

// failed reports a transport error, an unexpected status, or a failed
// answer check. Shed responses are counted apart.
func (a *answer) failed() bool {
	return a.err != nil || (a.status != http.StatusOK && !a.shed()) || a.check != ""
}

func (a *answer) ok() bool { return a.err == nil && a.status == http.StatusOK && a.check == "" }

// send posts one request and checks its answer.
func (h *harness) send(r *request, a *answer, t0 time.Time) {
	a.sent = time.Since(t0)
	status, body, err := h.post(r.body)
	a.recv = time.Since(t0)
	a.status, a.err = status, err
	if err != nil || status != http.StatusOK {
		return
	}
	if err := json.Unmarshal(body, &a.resp); err != nil {
		a.check = "undecodable answer: " + err.Error()
		return
	}
	a.check = checkAnswer(r, &a.resp)
}

// checkAnswer applies the answer checks every 200 response must pass.
func checkAnswer(r *request, resp *server.SolveResponseV2) string {
	if msg := checkSolution(r.n, r.m, resp.Alloc, resp.Makespan, resp.LowerBound,
		resp.Guarantee, resp.ProvenRatio, resp.Tier == "paper"); msg != "" {
		return msg
	}
	if resp.Fingerprint != r.fp {
		return fmt.Sprintf("fingerprint %q, client computed %q", resp.Fingerprint, r.fp)
	}
	if r.delta && resp.Delta == "" {
		return "delta request answered without a delta label"
	}
	return ""
}

// checkSolution checks an answer for an instance of n tasks on m
// processors: one allotment in [1, m] per task, a finite makespan no
// shorter than the certified lower bound, and, for a paper-tier answer, a
// guarantee within the proven ratio.
func checkSolution(n, m int, alloc []int, makespan, lb, guarantee, proven float64, paper bool) string {
	if len(alloc) != n {
		return fmt.Sprintf("alloc has %d entries, want n=%d", len(alloc), n)
	}
	for j, l := range alloc {
		if l < 1 || l > m {
			return fmt.Sprintf("alloc[%d]=%d outside [1, %d]", j, l, m)
		}
	}
	if math.IsNaN(makespan) || math.IsInf(makespan, 0) {
		return fmt.Sprintf("makespan %v is not finite", makespan)
	}
	if makespan < lb*(1-1e-12) {
		return fmt.Sprintf("makespan %v below its lower bound %v", makespan, lb)
	}
	if paper && guarantee > proven*(1+1e-12) {
		return fmt.Sprintf("paper-tier guarantee %v above the proven ratio %v", guarantee, proven)
	}
	return ""
}

// closedLoop sends reqs in order from `clients` goroutines, each sending
// its next request only when the previous one answered. It returns the
// answers (index-aligned with reqs) and the wall time of the loop.
func (h *harness) closedLoop(reqs []request, clients int) ([]answer, time.Duration) {
	ans := make([]answer, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				h.send(&reqs[i], &ans[i], t0)
			}
		}()
	}
	wg.Wait()
	return ans, time.Since(t0)
}

// poissonDue returns count due times of a Poisson arrival process at rate
// per second, starting at zero.
func poissonDue(rng *rand.Rand, rate float64, count int) []time.Duration {
	due := make([]time.Duration, count)
	t := 0.0
	for i := range due {
		due[i] = time.Duration(t * float64(time.Second))
		t += rng.ExpFloat64() / rate
	}
	return due
}

// openLoop sends reqs[i] at due[i] whether or not earlier requests have
// answered. One generator goroutine releases requests on schedule; at most
// `clients` sender goroutines (and connections) carry them, so a request
// due while every sender is busy waits in the client, and that wait counts
// in its latency, which is measured from the due time.
//
// With a non-nil trace, each sender also records a span per request.
func (h *harness) openLoop(reqs []request, due []time.Duration, clients int, trace *httpTrace) ([]answer, time.Duration) {
	ans := make([]answer, len(reqs))
	// Sized to the number of sends so the generator never blocks on a
	// busy sender and its lateness measures only its own scheduling.
	ready := make(chan int, len(reqs))
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ready {
				h.send(&reqs[i], &ans[i], t0)
				if trace != nil {
					trace.record(i, &ans[i])
				}
			}
		}()
	}
	for i := range reqs {
		if d := due[i] - time.Since(t0); d > 0 {
			time.Sleep(d)
		}
		ans[i].due = due[i]
		ans[i].dispatched = time.Since(t0)
		ready <- i
	}
	close(ready)
	wg.Wait()
	return ans, time.Since(t0)
}

// httpSpan is the traced record of one open-loop request: its client-side
// timestamps and the server's own account of it.
type httpSpan struct {
	Req                         int
	Due, Dispatched, Sent, Recv time.Duration
	Status                      int
	ElapsedMS, ColdMS           float64
	Cache, Formulation, Delta   string
	Degraded                    bool
}

// httpTrace keeps spans in memory until the run ends.
type httpTrace struct {
	mu    sync.Mutex
	spans []httpSpan
}

func (t *httpTrace) record(i int, a *answer) {
	s := httpSpan{
		Req: i, Due: a.due, Dispatched: a.dispatched, Sent: a.sent, Recv: a.recv, Status: a.status,
		ElapsedMS: a.resp.ElapsedMS, ColdMS: a.resp.ColdMS, Cache: a.resp.Cache,
		Formulation: a.resp.Formulation, Delta: a.resp.Delta, Degraded: a.resp.Degraded,
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// memProbe measures the whole process over a phase: bytes allocated, and
// the peak live heap (the heap the last GC marked live), sampled every
// few milliseconds.
type memProbe struct {
	alloc0 uint64
	peak   atomic.Uint64
	stop   chan struct{}
	done   chan struct{}
}

var memSamples = []string{"/gc/heap/allocs:bytes", "/gc/heap/live:bytes"}

func readMem() (alloc, live uint64) {
	s := make([]metrics.Sample, len(memSamples))
	for i, name := range memSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func startMemProbe() *memProbe {
	p := &memProbe{stop: make(chan struct{}), done: make(chan struct{})}
	p.alloc0, _ = readMem()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			_, live := readMem()
			if live > p.peak.Load() {
				p.peak.Store(live)
			}
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish stops the probe and returns the peak live heap in MB and the
// bytes allocated since the probe started.
func (p *memProbe) finish() (peakMB float64, allocBytes uint64) {
	close(p.stop)
	<-p.done
	alloc, live := readMem()
	peak := p.peak.Load()
	if live > peak {
		peak = live
	}
	return float64(peak) / (1 << 20), alloc - p.alloc0
}

// tally counts a set of answers.
type tally struct {
	attempted, ok, failed, shed, degraded, paper, hits, deltaWarm, deltas int
	guaranteeSum                                                          float64
	firstFailure                                                          string
}

func (t *tally) add(reqs []request, ans []answer) {
	for i := range ans {
		a := &ans[i]
		t.attempted++
		switch {
		case a.failed():
			t.failed++
			if t.firstFailure == "" {
				t.firstFailure = describeFailure(a)
			}
			continue
		case a.shed():
			t.shed++
			continue
		}
		t.ok++
		if a.resp.Degraded {
			t.degraded++
		}
		if a.resp.Cache == "hit" {
			t.hits++
		}
		if a.resp.Tier == "paper" {
			t.paper++
			t.guaranteeSum += a.resp.Guarantee
		}
		if reqs[i].delta {
			t.deltas++
			if a.resp.Delta == "warm" {
				t.deltaWarm++
			}
		}
	}
}

func describeFailure(a *answer) string {
	switch {
	case a.err != nil:
		return "transport: " + a.err.Error()
	case a.check != "":
		return "answer check: " + a.check
	default:
		return fmt.Sprintf("unexpected status %d", a.status)
	}
}

// latenciesMS returns due-time latencies of an open loop (failed and shed
// requests as +Inf) and the generator's lateness per request.
func latenciesMS(ans []answer) (lat, lag []float64) {
	due := make([]time.Duration, len(ans))
	disp := make([]time.Duration, len(ans))
	recv := make([]time.Duration, len(ans))
	ok := make([]bool, len(ans))
	for i := range ans {
		due[i], disp[i], recv[i], ok[i] = ans[i].due, ans[i].dispatched, ans[i].recv, ans[i].ok()
	}
	return dueLatencies(due, disp, recv, ok)
}
