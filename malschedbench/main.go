// Command malschedbench is the repository's end-to-end benchmark: it drives
// the malschedd serving path and the library Pool with seeded workloads,
// checks every answer, and reports end-to-end metrics (untraced) or
// per-layer metrics (traced). See README.md.
//
//	malschedbench --workload serve_fresh --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
// The exit status is non-zero when an answer check or a path
// certification failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

const (
	// defaultSeed is the seed used when --seed is not given.
	defaultSeed = 1
	// heldOutSeed is kept for confirming a performance claim on inputs
	// that nobody tuned against; do not use it while developing a change.
	heldOutSeed = 7919
	// setupRepeats is how many times a run sets the workload up; setup_s
	// is the median.
	setupRepeats = 3
)

// clients caps client connections and caller goroutines at the machine's
// processor count.
var clients = runtime.NumCPU()

// units of the metrics whose name does not give the unit away.
var units = map[string]string{
	"setup_s": "s", "ops_per_s": "1/s", "guarantee_mean": "ratio",
	"heap_peak_mb": "MB", "alloc_kb_per_op": "KB",
}

// endToEnd lists the end-to-end metrics in the result line. fail_frac,
// shed_frac and degraded_frac are printed too, but they are 0 on most
// workloads, so they are checked through "failed" and reported per layer
// instead of gated.
var endToEnd = []string{
	"setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms",
	"guarantee_mean", "heap_peak_mb", "alloc_kb_per_op",
}

func unitOf(name string) string {
	if u, ok := units[name]; ok {
		return u
	}
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_frac"), strings.HasSuffix(name, ".share"):
		return "share"
	case strings.HasSuffix(name, ".alloc_kb"):
		return "KB"
	}
	return "count"
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	problems          []string // failed checks and certifications
	metrics           map[string]float64
	notes             []string // human-readable context printed before the result line
}

func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	name := flag.String("workload", "", "workload: serve_repeat, serve_fresh, serve_delta or batch_large")
	seed := flag.Int64("seed", defaultSeed, fmt.Sprintf("input seed; %d is held out for confirming a claim, never for tuning", heldOutSeed))
	seconds := flag.Float64("seconds", 20, "length of the measured phases at the speed the benchmark was written against")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	traceOut := flag.String("trace-out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	flag.Parse()
	w := findWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: malschedbench --workload <serve_repeat|serve_fresh|serve_delta|batch_large> --seed <n> --seconds <s> --trace <0|1>")
		os.Exit(2)
	}

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds, *traceOut)
	} else {
		res, err = runUntraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", w.name, err)
		os.Exit(1)
	}
	printResult(w, res, *trace == 1)
	if len(res.problems) > 0 || res.failed > 0 {
		os.Exit(1)
	}
}

func printResult(w *workload, r *result, traced bool) {
	fmt.Printf("workload %s (clients %d)\n", w.name, clients)
	for _, n := range r.notes {
		fmt.Println("  " + n)
	}
	for _, p := range r.problems {
		fmt.Println("  FAILED: " + p)
	}
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-28s %14.6g %s\n", k, r.metrics[k], unitOf(k))
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	keep := endToEnd
	if traced {
		keep = perLayer
	}
	for _, k := range keep {
		v, ok := r.metrics[k]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			// A metric the run could not measure is a defect of the
			// benchmark, not a zero.
			fmt.Fprintf(os.Stderr, "metric %s missing or not finite (%v)\n", k, v)
			out.Correct = false
			continue
		}
		out.Metrics[k] = metric{Value: v, Unit: unitOf(k)}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// setupMedian sets the workload up setupRepeats times, closing all but the
// last environment, and returns the last one with the median set-up time.
func setupMedian(w *workload, seed int64, c counts, repeats int) (*env, float64, error) {
	var e *env
	var times []float64
	for k := 0; k < repeats; k++ {
		if e != nil {
			e.close()
		}
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		var err error
		if e, err = w.setup(seed, c); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}
