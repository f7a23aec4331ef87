package main

import (
	"math/rand"
	"runtime"
	"time"

	"nulpa/internal/engine"
	_ "nulpa/internal/engine/all" // registers nulpa and flpa
	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/nulpa"
	"nulpa/internal/telemetry"
)

// graphSet is an in-process workload's input: count graphs from one
// generator, each with its own sub-seed drawn from the run's seed. Ops cycle
// through the graphs, so a run's figures average over several graphs
// instead of resting on one draw of the generator.
type graphSet struct {
	count int
	build func(seed int64, tiny bool) *graph.CSR
}

// The in-process workloads use the Table-1 stand-in generators of
// internal/bench/datasets.go at its medium scale (road at large). social
// averages over the most graphs: its modularity varies most from graph to
// graph (0.18–0.68 against a planted partition at ≈ 0.67).
var (
	webGraphs = graphSet{4, func(seed int64, tiny bool) *graph.CSR {
		return gen.Web(gen.DefaultWeb(pick(tiny, 60000, 2000), 2, seed))
	}}
	roadGraphs = graphSet{8, func(seed int64, tiny bool) *graph.CSR {
		return gen.Road(gen.DefaultRoad(pick(tiny, 120000, 3000), seed))
	}}
	socialGraphs = graphSet{32, func(seed int64, tiny bool) *graph.CSR {
		g, _ := gen.Social(gen.DefaultSocial(pick(tiny, 9600, 600), 50, seed))
		return g
	}}
)

func pick(tiny bool, full, small int) int {
	if tiny {
		return small
	}
	return full
}

// graphRun is one in-process workload: a closed loop of registry detections
// from one goroutine.
type graphRun struct {
	det   engine.Detector
	floor float64
	out   *outcome
	spans *spanLog
}

// detectSample is one untraced registry Detect.
type detectSample struct {
	wall  time.Duration
	alloc uint64 // bytes allocated during the call
	q     float64
}

// untracedDetect runs one registry Detect with no profiler, checks it, and
// times the call alone: reading the allocation counter and the check stay
// outside the timed window.
func (r *graphRun) untracedDetect(g *graph.CSR) detectSample {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	res, err := r.det.Detect(g, engine.DefaultOptions())
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	s := detectSample{wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc}
	if err == nil {
		s.q, err = checkPartition(g, res, r.floor)
	}
	r.out.record(err)
	return s
}

// tracedSample is one traced operation: a profiled registry Detect, the
// engine.NewResult build repeated on that run's raw labels, and a profiled
// direct nulpa.Detect on the same graph for the setup split.
type tracedSample struct {
	detect time.Duration // registry Detect wall time
	result time.Duration // engine.NewResult on the run's raw labels
	setup  time.Duration // nulpa.Detect wall time minus its Result.Duration
	n      int           // vertices of the graph
	res    *engine.Result
	// kernels holds the registry run's per-kernel launch summaries.
	kernels []telemetry.KernelSummary
}

func (r *graphRun) tracedOp(g *graph.CSR, op, parent int) (tracedSample, bool) {
	sp := r.spans
	root := sp.begin(op, parent, "op")
	defer sp.end(root)

	opt := engine.DefaultOptions()
	rec := telemetry.NewRecorder()
	opt.Profiler = rec
	id := sp.begin(op, root, "engine.Detect")
	t0 := time.Now()
	res, err := r.det.Detect(g, opt)
	s := tracedSample{detect: time.Since(t0), n: g.NumVertices(), res: res}
	sp.end(id)
	id = sp.begin(op, root, "check")
	if err == nil {
		_, err = checkPartition(g, res, r.floor)
	}
	sp.end(id)
	if err != nil {
		r.out.record(err)
		return s, false
	}
	s.kernels = rec.KernelSummaries()
	raw := res.Extra.(*nulpa.Result).Labels
	id = sp.begin(op, root, "engine.NewResult")
	t0 = time.Now()
	engine.NewResult(raw)
	s.result = time.Since(t0)
	sp.end(id)

	nopt := nulpa.DefaultOptions()
	nopt.Profiler = telemetry.NewRecorder()
	nopt.TrackStats = true
	id = sp.begin(op, root, "nulpa.Detect")
	t0 = time.Now()
	nres, err := nulpa.Detect(g, nopt)
	wall := time.Since(t0)
	sp.end(id)
	id = sp.begin(op, root, "check")
	if err == nil {
		s.setup = wall - nres.Duration
		_, err = checkPartition(g, engine.NewResult(nres.Labels), r.floor)
	}
	sp.end(id)
	r.out.record(err)
	return s, err == nil
}

// runGraph runs an in-process workload: setup, warm-up, the untraced pass,
// and with cfg.trace the traced pass.
func runGraph(cfg config, set graphSet, floor float64) (*outcome, error) {
	det, err := engine.MustGet("nulpa")
	if err != nil {
		return nil, err
	}
	flpa, err := engine.MustGet("flpa")
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	var sp *spanLog
	if cfg.trace {
		sp = newSpanLog()
	}
	root := sp.begin(0, 0, "workload")
	setup := sp.begin(0, root, "setup")
	rng := rand.New(rand.NewSource(cfg.seed))
	gs := make([]*graph.CSR, set.count)
	builds := make([]float64, set.count)
	for i := range gs {
		id := sp.begin(0, setup, "gen")
		t0 := time.Now()
		gs[i] = set.build(rng.Int63(), cfg.tiny)
		builds[i] = time.Since(t0).Seconds()
		sp.end(id)
	}
	sp.end(setup)
	r := &graphRun{det: det, floor: floor, out: out}
	graphOf := func(op int) *graph.CSR { return gs[op%len(gs)] }

	untracedLen, tracedLen := cfg.passes()
	repeatFor(cfg.warmup(), 2, func(i int) { r.untracedDetect(graphOf(i)) })
	var walls, rates []float64
	var alloc uint64
	qs := make([][]float64, len(gs))
	repeatFor(untracedLen, 3, func(i int) {
		g := graphOf(i)
		s := r.untracedDetect(g)
		walls = append(walls, ms(s.wall))
		rates = append(rates, float64(g.NumArcs())/s.wall.Seconds())
		qs[i%len(gs)] = append(qs[i%len(gs)], s.q)
		alloc += s.alloc
	})
	n := float64(len(walls))
	out.set("op_ms_p50", median(walls))
	out.set("op_ms_p90", quantile(walls, 0.9))
	out.set("ops_per_s", n/(sum(walls)/1000))
	out.set("edges_per_s", median(rates))
	// Every graph weighs the same, however many detections it got.
	var graphQ []float64
	for _, q := range qs {
		if len(q) > 0 {
			graphQ = append(graphQ, sum(q)/float64(len(q)))
		}
	}
	out.set("modularity", sum(graphQ)/float64(len(graphQ)))
	out.set("alloc_mb_per_op", float64(alloc)/n/1e6)
	// All graphs' build time, estimated robustly from the per-graph median.
	out.set("setup_s", median(builds)*float64(len(builds)))
	if !cfg.trace {
		sp.end(root)
		return out, nil
	}

	r.spans = sp
	repeatFor(cfg.warmup()/3, 1, func(i int) { r.tracedOp(graphOf(i), -1-i, root) })
	var ts []tracedSample
	repeatFor(tracedLen, 3, func(i int) {
		if s, ok := r.tracedOp(graphOf(i), i+1, root); ok {
			ts = append(ts, s)
		}
	})
	var flpaMS []float64
	repeatFor(0, 3, func(i int) {
		g := graphOf(i)
		id := sp.begin(0, root, "ref.flpa")
		t0 := time.Now()
		res, err := flpa.Detect(g, engine.DefaultOptions())
		flpaMS = append(flpaMS, ms(time.Since(t0)))
		sp.end(id)
		if err == nil {
			_, err = checkPartition(g, res, 0)
		}
		out.record(err)
	})
	sp.end(root)
	setLayers(out, ts, median(walls))
	out.set("gen.build_ms", median(builds)*1000)
	out.set("ref.flpa_ms_p50", median(flpaMS))
	if cfg.spans != "" {
		if err := sp.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// setLayers derives the per-layer metrics from the traced samples: per-op
// medians for times and counts, pooled ratios for fractions. untracedMS is
// the untraced median Detect time the tracing overhead is measured against.
func setLayers(out *outcome, ts []tracedSample, untracedMS float64) {
	var detect, setup, loop, result, host, iters, tk, bk, launches, cas []float64
	var collisions, fallbacks, edges, flips, active, comms []float64
	var accs, probes, activeSum, flipSum, iterVerts float64
	pooled := map[string]*telemetry.KernelSummary{}
	for _, s := range ts {
		detect = append(detect, ms(s.detect))
		setup = append(setup, ms(s.setup))
		loop = append(loop, ms(s.res.Duration))
		result = append(result, ms(s.result))
		var kern, tkd, bkd time.Duration
		var c, col, fb int64
		for _, it := range s.res.Trace {
			kern += it.ThreadKernel + it.BlockKernel + it.CrossKernel
			tkd += it.ThreadKernel
			bkd += it.BlockKernel
			c += it.CASRetries
			col += it.HashCollisions
			fb += it.HashFallbacks
			accs += float64(it.HashAccumulates)
			probes += float64(it.HashProbes)
		}
		host = append(host, ms(s.res.Duration-kern))
		tk = append(tk, ms(tkd))
		bk = append(bk, ms(bkd))
		cas = append(cas, float64(c))
		collisions = append(collisions, float64(col))
		fallbacks = append(fallbacks, float64(fb))
		iters = append(iters, float64(s.res.Iterations))
		w := telemetry.TotalWork(s.res.Trace)
		edges = append(edges, float64(w.EdgeVisits))
		flips = append(flips, float64(w.LabelFlips))
		active = append(active, float64(w.ActiveVertices))
		activeSum += float64(w.ActiveVertices)
		flipSum += float64(w.LabelFlips)
		iterVerts += float64(s.res.Iterations) * float64(s.n)
		comms = append(comms, float64(s.res.Communities))
		var l float64
		for _, k := range s.kernels {
			l += float64(k.Launches)
			p := pooled[k.Kernel]
			if p == nil {
				p = &telemetry.KernelSummary{Kernel: k.Kernel}
				pooled[k.Kernel] = p
			}
			p.Launches += k.Launches
			p.Total += k.Total
			p.SMBusy += k.SMBusy
			p.Blocks += k.Blocks
			p.Phases += k.Phases
			p.Lanes += k.Lanes
			p.Work = p.Work.Add(k.Work)
		}
		launches = append(launches, l)
	}
	parts := median(setup) + median(loop) + median(result)
	out.set("engine.detect_ms", median(detect))
	out.set("nulpa.setup_ms", median(setup))
	out.set("engine.loop_ms", median(loop))
	out.set("engine.result_ms", median(result))
	out.set("engine.residual_ms", median(detect)-parts)
	out.set("engine.iterations", median(iters))
	out.set("engine.host_ms", median(host))
	out.set("simt.thread_kernel_ms", median(tk))
	out.set("simt.block_kernel_ms", median(bk))
	out.set("simt.launches", median(launches))
	out.set("simt.cas_retries", median(cas))
	sms := float64(runtime.GOMAXPROCS(0)) // the default device's SM count
	idle := func(k *telemetry.KernelSummary) float64 {
		if k == nil {
			return 0
		}
		return 1 - ratio(float64(k.SMBusy), float64(k.Total)*sms)
	}
	thread := pooled["thread-per-vertex"]
	out.set("simt.thread.sm_idle_frac", idle(thread))
	out.set("simt.block.sm_idle_frac", idle(pooled["block-per-vertex"]))
	if thread != nil && thread.Phases > 0 {
		// Lanes counts lane executions per phase; lanes launched is one
		// per thread of each block.
		launched := float64(thread.Lanes) * float64(thread.Blocks) / float64(thread.Phases)
		out.set("simt.lane_yield", ratio(float64(thread.Work.ActiveVertices), launched))
	}
	out.set("hashtable.probes_per_accumulate", ratio(probes, accs))
	out.set("hashtable.collisions", median(collisions))
	out.set("hashtable.fallbacks", median(fallbacks))
	out.set("work.edge_visits", median(edges))
	out.set("work.label_flips", median(flips))
	out.set("work.active_vertices", median(active))
	out.set("work.frontier_occupancy", ratio(activeSum, iterVerts))
	out.set("work.flips_per_active", ratio(flipSum, activeSum))
	out.set("quality.communities", median(comms))
	out.set("trace.overhead_frac", ratio(median(detect), untracedMS)-1)
}
