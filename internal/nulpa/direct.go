package nulpa

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
)

// detectDirect executes the identical ν-LPA algorithm as a chunked multicore
// parallel loop — no lockstep simulation, no kernel-launch bookkeeping. It
// exists so runtime comparisons against CPU baselines measure the algorithm
// (pruning, Pick-Less, per-vertex hashtables) rather than the cost of
// simulating a GPU. Asynchrony between workers plays the role of asynchrony
// between SMs; community swaps are rarer than under lockstep but Pick-Less
// is still applied on the same schedule.
func detectDirect(g *graph.CSR, opt Options) (*Result, error) {
	n := g.NumVertices()
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	st := newRunState(g, opt)
	res := &Result{DeviceBytes: st.arena.Bytes()}
	if opt.TrackStats {
		res.HashStats = &hashtable.Stats{}
		st.arena.Stats = res.HashStats
	}

	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: opt.MaxIterations,
		Threshold:     opt.Tolerance * float64(n),
		Ctx:           opt.Context,
		Profiler:      opt.Profiler,
	}, func(_ context.Context, iter int) engine.IterOutcome {
		st.pickless = opt.PickLessEvery > 0 && iter%opt.PickLessEvery == 0
		crosscheck := opt.CrossCheckEvery > 0 && iter%opt.CrossCheckEvery == 0
		rec, hashBase := st.beginIteration(res, crosscheck, opt.Profiler != nil)

		forChunks(n, directChunk, workers, func(lo, hi int) {
			// Two-phase, like one SIMT block: compute every candidate in
			// the chunk against a pre-move snapshot, then apply the moves.
			// Fully asynchronous chunk-local sweeps would let Pick-Less
			// iterations cascade one small label across a community in a
			// single pass.
			var cand [directChunk]uint32
			var moves, edges, active int64
			for v := lo; v < hi; v++ {
				c, scanned := st.candidate(graph.Vertex(v))
				cand[v-lo] = c
				if scanned {
					active++
					edges += int64(g.Degree(graph.Vertex(v)))
				}
			}
			for v := lo; v < hi; v++ {
				if st.commit(graph.Vertex(v), cand[v-lo]) {
					moves++
					edges += int64(st.wake(graph.Vertex(v)))
				}
			}
			atomic.AddInt64(&st.deltaN, moves)
			atomic.AddInt64(&st.iterEdges, edges)
			atomic.AddInt64(&st.iterActive, active)
		})
		if crosscheck {
			forChunks(n, 4*directChunk, workers, func(lo, hi int) {
				var reverts int64
				for i := lo; i < hi; i++ {
					if st.revert(i) {
						reverts++
					}
				}
				atomic.AddInt64(&st.reverts, reverts)
			})
		}
		return st.endIteration(res, rec, hashBase, opt.PickLessEvery)
	})
	if lr.Err != nil {
		return nil, lr.Err
	}
	res.Iterations = lr.Iterations
	res.Converged = lr.Converged
	res.Trace = lr.Trace
	res.Duration = lr.Duration
	res.Labels = st.labels
	return res, nil
}

// directChunk is the number of vertices a direct-backend worker claims at a
// time.
const directChunk = 1024

// forChunks runs body over [0, n) split into chunks of the given size,
// which workers goroutines claim from a shared cursor.
func forChunks(n, chunk, workers int, body func(lo, hi int)) {
	var cursor int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&cursor, int64(chunk))) - chunk
				if lo >= n {
					return
				}
				body(lo, min(lo+chunk, n))
			}
		}()
	}
	wg.Wait()
}
