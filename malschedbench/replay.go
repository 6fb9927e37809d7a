package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"malsched"
	"malsched/internal/allot"
	"malsched/internal/dag"
	"malsched/internal/listsched"
	"malsched/internal/params"
	"malsched/internal/prep"
	"malsched/internal/server"
	"malsched/internal/solver"
)

// The stage replay re-runs single requests, one at a time after the load
// has stopped, by calling each module's public functions in the order the
// server's path calls them (decode, fingerprint, Instance.Validate, then
// malsched's graph build and core.SolveWith's reduce, phase 1, rounding,
// phase 2 and verify, then encode), and records one span per call under a
// root span per request.

// stage names a replay span and the module metric its self time feeds.
type stage struct{ name, metric string }

var stages = []stage{
	{"decode", "server.decode_ms"},
	{"fingerprint", "malsched.fingerprint_ms"},
	{"validate", "malsched.validate_ms"},
	{"graph", "malsched.graph_ms"},
	{"reduce", "prep.reduce_ms"},
	{"phase1", "allot.phase1_ms"},
	{"round", "allot.round_ms"},
	{"phase2", "listsched.phase2_ms"},
	{"verify", "schedule.verify_ms"},
	{"encode", "server.encode_ms"},
}

// solveStages are the stages a pool worker runs for a solve: their summed
// time is an instance's solo solve time.
var solveStages = map[string]bool{
	"graph": true, "reduce": true, "phase1": true, "round": true, "phase2": true, "verify": true,
}

// tracer keeps spans in memory; they are summarized when the run ends.
type tracer struct {
	t0     time.Time
	spans  []span
	allocs []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), allocs: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) heapAllocs() uint64 {
	metrics.Read(t.allocs)
	return t.allocs[0].Value.Uint64()
}

// begin opens a span and returns its index. The allocation counter is read
// before the clock so the read is not billed to the span.
func (t *tracer) begin(name string, parent int) int {
	a := t.heapAllocs()
	t.spans = append(t.spans, span{Name: name, Parent: parent, AllocBytes: a, Start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.spans[i].End = time.Since(t.t0)
	t.spans[i].AllocBytes = t.heapAllocs() - t.spans[i].AllocBytes
}

// replayed is what one replayed request produced.
type replayed struct {
	root        int // span index
	fingerprint string
	formulation allot.Formulation
	cuts        int
	rounds      int
	stalled     bool // phase 1 failed
	makespan    float64
}

// internalInstance is malsched's conversion of a public instance into the
// solver's form: deduplicated edges into a DAG, then validation.
func internalInstance(in *malsched.Instance) (*allot.Instance, error) {
	g := dag.New(len(in.Tasks))
	for _, e := range prep.DedupEdges(in.Edges) {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	ai := &allot.Instance{G: g, Tasks: in.Tasks, M: in.M}
	return ai, ai.Validate()
}

// applyEdits materializes base + edits the way the server's delta path
// does.
func applyEdits(base *malsched.Instance, edits []server.TaskEdit) *malsched.Instance {
	out := &malsched.Instance{M: base.M, Edges: base.Edges, Tasks: append([]malsched.Task(nil), base.Tasks...)}
	for _, e := range edits {
		out.Tasks[e.Task] = malsched.NewTask(out.Tasks[e.Task].Name, e.Times)
	}
	return out
}

// replayOne replays one request body. bases resolves the base fingerprint
// of a delta request.
func replayOne(t *tracer, body []byte, bases map[string]*malsched.Instance, ws *solver.Workspace) (replayed, error) {
	var r replayed
	r.root = t.begin("replay", -1)
	defer t.end(r.root)

	s := t.begin("decode", r.root)
	var req server.SolveRequestV2
	err := json.Unmarshal(body, &req)
	t.end(s)
	if err != nil {
		return r, fmt.Errorf("decoding request: %w", err)
	}
	in := req.Instance
	if req.Base != "" {
		base, ok := bases[req.Base]
		if !ok {
			return r, fmt.Errorf("unknown base %q", req.Base)
		}
		in = applyEdits(base, req.Edits)
	}

	s = t.begin("fingerprint", r.root)
	r.fingerprint = in.Fingerprint()
	sfp := in.StructureFingerprint()
	t.end(s)

	s = t.begin("validate", r.root)
	err = in.Validate()
	t.end(s)
	if err != nil {
		return r, fmt.Errorf("validating: %w", err)
	}

	// malsched.Solve converts and validates the instance, and
	// core.SolveWith validates it once more before it starts.
	s = t.begin("graph", r.root)
	ai, err := internalInstance(in)
	if err == nil {
		err = ai.Validate()
	}
	t.end(s)
	if err != nil {
		return r, fmt.Errorf("building the DAG: %w", err)
	}
	choice := params.Choose(in.M)

	s = t.begin("reduce", r.root)
	red := ws.Reduce(ai)
	t.end(s)
	defer ws.Release()

	s = t.begin("phase1", r.root)
	frac, err := allot.SolveLPWith(red, ws.LP())
	t.end(s)
	if err != nil {
		r.stalled = true
		return r, nil
	}
	r.formulation, r.cuts, r.rounds = frac.Formulation, frac.Cuts, frac.Rounds

	s = t.begin("round", r.root)
	alphaPrime := allot.RoundWith(red, frac, choice.Rho, ws.LP())
	t.end(s)

	s = t.begin("phase2", r.root)
	alpha := listsched.CapAllotment(alphaPrime, choice.Mu)
	sched, err := listsched.RunWith(red, alpha, ws.Sched())
	t.end(s)
	if err != nil {
		return r, fmt.Errorf("phase 2: %w", err)
	}

	s = t.begin("verify", r.root)
	err = sched.Verify(ai.G)
	t.end(s)
	if err != nil {
		return r, fmt.Errorf("verifying: %w", err)
	}

	// The certified lower bound and guarantee, as core.SolveWith derives
	// them.
	lb := math.Max(math.Max(frac.L, frac.W/float64(in.M)), frac.C)
	r.makespan = sched.Makespan()
	s = t.begin("encode", r.root)
	_, err = json.Marshal(server.SolveResponseV2{
		SolveResponse: server.SolveResponse{
			Makespan: r.makespan, LowerBound: lb, Guarantee: r.makespan / lb,
			ProvenRatio: choice.R, Alloc: alpha, Algo: "paper", Routed: true, Cache: "miss",
		},
		Fingerprint: r.fingerprint, StructureFingerprint: sfp, Tier: "paper",
		Formulation: string(frac.Formulation),
	})
	t.end(s)
	return r, err
}

// replaySummary aggregates a replay into per-layer metrics.
type replaySummary struct {
	metrics map[string]float64
	// solo is each replayed request's solo solve time in ms (the summed
	// solveStages), index-aligned with the replayed requests.
	solo []float64
}

func summarizeReplay(t *tracer, rs []replayed) replaySummary {
	self := selfTimes(t.spans)
	stageMS := map[string][]float64{}
	stageKB := map[string][]float64{}
	var rootMS float64
	out := replaySummary{metrics: map[string]float64{}, solo: make([]float64, len(rs))}
	rootOf := map[int]int{}
	for k, r := range rs {
		rootOf[r.root] = k
		rootMS += ms(t.spans[r.root].End - t.spans[r.root].Start)
	}
	for i, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		stageMS[s.Name] = append(stageMS[s.Name], ms(self[i]))
		stageKB[s.Name] = append(stageKB[s.Name], float64(s.AllocBytes)/1024)
		if solveStages[s.Name] {
			out.solo[rootOf[s.Parent]] += ms(self[i])
		}
	}
	for _, st := range stages {
		out.metrics[st.metric] = mean(stageMS[st.name])
		out.metrics[st.name+".alloc_kb"] = mean(stageKB[st.name])
		total := 0.0
		for _, v := range stageMS[st.name] {
			total += v
		}
		out.metrics[st.name+".share"] = total / rootMS
	}
	out.metrics["replay.root_ms"] = rootMS / float64(len(rs))

	var lazyMS, flowMS []float64
	var lazyCuts, lazyRounds, flowBreaks, flowAugs []float64
	stalls := 0
	phase1 := stageMS["phase1"]
	for k, r := range rs {
		switch {
		case r.stalled:
			stalls++
			flowMS = append(flowMS, phase1[k])
		case r.formulation == allot.FormulationMincut:
			flowMS = append(flowMS, phase1[k])
			flowBreaks = append(flowBreaks, float64(r.cuts))
			flowAugs = append(flowAugs, float64(r.rounds))
		default:
			lazyMS = append(lazyMS, phase1[k])
			lazyCuts = append(lazyCuts, float64(r.cuts))
			lazyRounds = append(lazyRounds, float64(r.rounds))
		}
	}
	n := float64(len(rs))
	out.metrics["allot.lazy_frac"] = float64(len(lazyMS)) / n
	out.metrics["allot.mincut_frac"] = float64(len(flowMS)) / n
	out.metrics["lp.phase1_ms"] = mean(lazyMS)
	out.metrics["lp.cuts"] = mean(lazyCuts)
	out.metrics["lp.rounds"] = mean(lazyRounds)
	out.metrics["flow.phase1_ms"] = mean(flowMS)
	out.metrics["flow.breakpoints"] = mean(flowBreaks)
	out.metrics["flow.augmentations"] = mean(flowAugs)
	out.metrics["flow.stall_count"] = float64(stalls)
	return out
}
