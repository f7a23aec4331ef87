package nulpa

import (
	"sync/atomic"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
)

// The ν-LPA vertex step, written once for every executor: the SIMT thread
// kernel, the block kernel's lane-0 decision, the Cross-Check kernel, and
// the direct backend's chunked loop. Each executor only decides how the
// steps are scheduled (lockstep phases, lanes, chunks) and how work is
// counted.

// claim is the vertex-pruning check: it reports whether vertex i must be
// processed this iteration and marks it processed. With pruning disabled
// every vertex is processed.
func (st *runState) claim(i graph.Vertex) bool {
	if st.noPrune {
		return true
	}
	if simt.AtomicLoadUint32(st.processed, int(i)) == 1 {
		return false
	}
	simt.AtomicStoreUint32(st.processed, int(i), 1)
	return true
}

// candidate is the single-thread candidate scan of vertex i: the pruning
// check, then clear, accumulate the neighbour labels into, and MaxKey-scan
// the vertex's hashtable. It returns the most weighted neighbouring label
// (hashtable.EmptyKey when there is none) and whether the vertex was
// scanned; isolated and pruned vertices are not.
func (st *runState) candidate(i graph.Vertex) (c uint32, scanned bool) {
	deg := st.g.Degree(i)
	if deg == 0 || !st.claim(i) {
		return hashtable.EmptyKey, false
	}
	tb := st.arena.TableFor(st.g.Offset(i), deg)
	tb.Clear(0, 1)
	ts, ws := st.g.Neighbors(i)
	for idx, j := range ts {
		if j == i {
			continue
		}
		tb.Accumulate(simt.AtomicLoadUint32(st.labels, int(j)), float64(ws[idx]), false)
	}
	c, _, _ = tb.MaxKey()
	return c, true
}

// commit moves vertex i to candidate label c under the Pick-Less rule (in a
// Pick-Less iteration only a strictly smaller label is taken) and reports
// whether the label changed. Waking the neighbourhood is left to the caller.
func (st *runState) commit(i graph.Vertex, c uint32) bool {
	if c == hashtable.EmptyKey {
		return false
	}
	cur := simt.AtomicLoadUint32(st.labels, int(i))
	if c == cur || (st.pickless && c > cur) {
		return false
	}
	simt.AtomicStoreUint32(st.labels, int(i), c)
	return true
}

// wake clears the pruning flags of i's neighbours, whose best label may have
// shifted, and returns the number of arcs scanned.
func (st *runState) wake(i graph.Vertex) int {
	ts, _ := st.g.Neighbors(i)
	for _, j := range ts {
		simt.AtomicStoreUint32(st.processed, int(j), 0)
	}
	return len(ts)
}

// revert is the Cross-Check (CC) test of vertex i: a change to community c*
// is "good" only if the leader vertex c* itself belongs to c*; otherwise i
// reverts to its previous label and is woken, since it changed again. It
// reports whether i reverted.
func (st *runState) revert(i int) bool {
	cur := simt.AtomicLoadUint32(st.labels, i)
	if cur == st.prev[i] || simt.AtomicLoadUint32(st.labels, int(cur)) == cur {
		return false
	}
	simt.AtomicStoreUint32(st.labels, i, st.prev[i])
	simt.AtomicStoreUint32(st.processed, i, 0)
	return true
}

// beginIteration resets the per-iteration counters before an iteration (or
// a retried attempt of one) and snapshots the labels for Cross-Check. It
// returns the iteration's record, carrying the pruned-vertex count when
// profiled, and the hashtable stats baseline for endIteration.
func (st *runState) beginIteration(res *Result, crosscheck, profiled bool) (IterStat, hashtable.StatsSnapshot) {
	atomic.StoreInt64(&st.deltaN, 0)
	atomic.StoreInt64(&st.reverts, 0)
	st.iterEdges, st.iterActive = 0, 0
	if crosscheck {
		copy(st.prev, st.labels)
	}
	rec := IterStat{PickLess: st.pickless, CrossCheck: crosscheck}
	if profiled && !st.noPrune {
		rec.Pruned = countPruned(st.processed)
	}
	return rec, res.HashStats.Snapshot()
}

// endIteration completes rec with the iteration's moves, ΔN net of
// Cross-Check reverts, work totals and hashtable probe delta since hashBase,
// folds the moves into res, and returns the loop outcome.
func (st *runState) endIteration(res *Result, rec IterStat, hashBase hashtable.StatsSnapshot, pickLessEvery int) engine.IterOutcome {
	rec.Moves = atomic.LoadInt64(&st.deltaN)
	rec.Reverts = atomic.LoadInt64(&st.reverts)
	rec.DeltaN = rec.Moves - rec.Reverts
	rec.EdgeVisits = atomic.LoadInt64(&st.iterEdges)
	rec.ActiveVertices = atomic.LoadInt64(&st.iterActive)
	res.Moves += rec.DeltaN
	res.Reverts += rec.Reverts
	if res.HashStats != nil {
		d := res.HashStats.Snapshot().Sub(hashBase)
		rec.HashAccumulates = d.Accumulates
		rec.HashProbes = d.Probes
		rec.HashCollisions = d.Collisions
		rec.HashFallbacks = d.Fallbacks
	}
	return engine.IterOutcome{
		Record: rec,
		// Pick-Less iterations intentionally move few vertices and must
		// not count as convergence.
		ForceContinue: st.pickless,
		// A fixed point under permanent Pick-Less is also converged.
		Stop: rec.DeltaN == 0 && pickLessEvery == 1,
		// Labels feed the quality plane on single-device runs; sharded runs
		// discard the per-shard view and gather a global one instead.
		Labels: st.labels,
	}
}
