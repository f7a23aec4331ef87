package nulpa

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sync/atomic"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
	"nulpa/internal/trace"
)

// Typed fault errors. Callers match with errors.Is.
var (
	// ErrFaulted reports that the simt backend exhausted its per-iteration
	// recovery budget (MaxRetries consecutive failed attempts) and the run
	// could not continue on the device.
	ErrFaulted = errors.New("nulpa: simt backend faulted beyond recovery")
	// ErrCorruptLabels reports that the post-iteration validity check found
	// an out-of-range label — transient memory corruption the kernels
	// cannot have produced themselves.
	ErrCorruptLabels = errors.New("nulpa: label array failed validity check")
)

// Detect runs ν-LPA on g and returns the community membership of every
// vertex (Algorithm 1). The graph must be undirected (as produced by the
// graph package builders). It returns an error for invalid options, when the
// simulated device cannot hold the working set (the paper's out-of-memory
// condition on sk-2005), when Options.Context ends the run early
// (engine.ErrCanceled / engine.ErrDeadline), or — with DisableFallback —
// when the simt backend faults beyond recovery (ErrFaulted).
//
// Without DisableFallback, a run that exhausts the simt recovery budget
// degrades gracefully: it is re-executed on the sequential backend (the
// recovery ladder's last rung), the downgrade is counted in
// nulpa_backend_fallbacks_total, and the Result carries Degraded.
func Detect(g *graph.CSR, opt Options) (*Result, error) {
	if err := checkOptions(&opt); err != nil {
		return nil, err
	}
	if opt.Backend == BackendDirect {
		return detectDirect(g, opt)
	}
	var res *Result
	var err error
	if opt.Backend == BackendSharded {
		res, err = detectSharded(g, opt)
	} else {
		res, err = detectSIMT(g, opt)
	}
	if err != nil && errors.Is(err, ErrFaulted) && !opt.DisableFallback {
		// The degradation is the run's most important observability moment:
		// it lands on the run's span as an event, in the log stream with the
		// trace id, and as a counter exemplar so a dashboard's fallback spike
		// links straight to the trace that tripped it.
		traceID := trace.IDFromContext(opt.Context)
		mFallbacks.IncExemplar(traceID)
		trace.FromContext(opt.Context).Event("fallback:direct", map[string]any{"error": err.Error()})
		slog.Warn("nulpa simt backend faulted beyond recovery; degrading to the direct backend",
			"trace", traceID, "error", err)
		fopt := opt
		fopt.Backend = BackendDirect
		fopt.Workers = 1 // sequential: the most conservative rung
		fopt.Faults = nil
		fopt.ShardFaults = nil
		fres, ferr := detectDirect(g, fopt)
		if ferr != nil {
			return nil, ferr
		}
		fres.Degraded = true
		return fres, nil
	}
	return res, err
}

func checkOptions(opt *Options) error {
	if opt.MaxIterations <= 0 {
		return fmt.Errorf("nulpa: MaxIterations must be positive, got %d", opt.MaxIterations)
	}
	if opt.Tolerance < 0 || opt.Tolerance >= 1 {
		return fmt.Errorf("nulpa: Tolerance must be in [0,1), got %g", opt.Tolerance)
	}
	if opt.PickLessEvery < 0 || opt.CrossCheckEvery < 0 {
		return fmt.Errorf("nulpa: mitigation periods must be non-negative")
	}
	if opt.SwitchDegree < 0 {
		return fmt.Errorf("nulpa: SwitchDegree must be non-negative, got %d", opt.SwitchDegree)
	}
	if opt.BlockDim <= 0 {
		opt.BlockDim = 256
	}
	if opt.Backend == BackendSharded {
		if opt.Shards < 0 {
			return fmt.Errorf("nulpa: Shards must be non-negative, got %d", opt.Shards)
		}
		if opt.Shards == 0 {
			opt.Shards = DefaultShards
		}
		if opt.CrossCheckEvery > 0 {
			// Cross-Check dereferences a label as a vertex id (leader lookup);
			// under sharding labels are global ids while kernel arrays are
			// shard-local, so the lookup has no local meaning. The BSP barrier
			// already prevents the inter-device swap cycles CC exists for
			// (semi-synchronous scheduling, Cordasco & Gargano).
			return fmt.Errorf("nulpa: Cross-Check is not supported on the sharded backend")
		}
	}
	return nil
}

// runState is the device-resident state shared by the kernels of one run.
type runState struct {
	g         *graph.CSR
	arena     *hashtable.Arena
	labels    []uint32 // C
	prev      []uint32 // labels before the current iteration (Cross-Check)
	processed []uint32 // vertex pruning flags: 1 = skip
	pickless  bool
	noPrune   bool  // DisablePruning: skip the processed-flag fast path
	deltaN    int64 // atomic: label changes this iteration
	reverts   int64 // atomic: Cross-Check reverts this iteration

	// Work accounting. countWork gates the kernels' counter updates — set
	// when the device profiler consumes work counters (simt.WantsWork).
	// The arena's Stats are the hashtable probe source for per-kernel
	// attribution; lastHash is their snapshot at the previous kernel drain
	// (kernel launches within a run are serialized, so a plain field
	// suffices). iterEdges/iterActive accumulate the iteration's totals for
	// the IterRecord: the simt backend adds from TakeWork on the launching
	// goroutine, the direct backend adds chunk-local sums atomically.
	countWork  bool
	lastHash   hashtable.StatsSnapshot
	iterEdges  int64
	iterActive int64
}

// newRunState allocates the kernel state of one run over g: the hashtable
// arena (2·|E| slots), identity labels, cleared pruning flags and, with
// Cross-Check, the previous-label snapshot.
func newRunState(g *graph.CSR, opt Options) *runState {
	n := g.NumVertices()
	st := &runState{
		g:         g,
		arena:     hashtable.NewArena(opt.ValueKind, opt.Probing, 2*g.NumArcs()),
		labels:    make([]uint32, n),
		processed: make([]uint32, n),
		noPrune:   opt.DisablePruning,
	}
	for i := range st.labels {
		st.labels[i] = uint32(i)
	}
	if opt.CrossCheckEvery > 0 {
		st.prev = make([]uint32, n)
	}
	return st
}

func detectSIMT(g *graph.CSR, opt Options) (*Result, error) {
	dev := opt.Device
	if dev == nil {
		dev = simt.NewDevice(0)
	}
	r, err := newDeviceRun(g, opt, dev, runView{})
	if err != nil {
		return nil, err
	}
	defer r.free()
	ctx := opt.Context
	if ctx == nil {
		ctx = context.Background()
	}
	lr := engine.Loop(engine.LoopConfig{
		MaxIterations: opt.MaxIterations,
		Threshold:     opt.Tolerance * float64(g.NumVertices()),
		Ctx:           ctx,
		Profiler:      opt.Profiler,
	}, r.iterate)
	if lr.Err != nil {
		return nil, lr.Err
	}
	r.res.Iterations = lr.Iterations
	r.res.Converged = lr.Converged
	r.res.Trace = lr.Trace
	r.res.Duration = lr.Duration
	r.res.Labels = r.st.labels
	return r.res, nil
}

// runView parameterizes a deviceRun for shard-local execution. The zero
// value is the whole-graph view the single-device backend uses.
type runView struct {
	// propagate limits the kernel lists to local ids strictly below it —
	// a shard's owned vertices. Ghost rows beyond it hold halo labels the
	// kernels read but never process. <= 0 means every vertex propagates.
	propagate int
	// labelBound is the exclusive upper bound of valid label values (the
	// global vertex count under sharding, where labels are global ids while
	// the local arrays are shorter). <= 0 means the local vertex count.
	labelBound int
	// labels, when non-nil, seeds the initial label array (a shard seeds
	// each row with its global vertex id). nil means the identity labeling.
	labels []uint32
}

// deviceRun is one device's share of a ν-LPA run: the kernel state, the
// degree-partitioned launch lists, the per-iteration checkpoint, and the
// recovery budget. The single-device backend owns exactly one; the sharded
// backend owns one per shard and drives them through engine.ShardLoop, so
// one shard's rollback/retry never restarts its peers.
type deviceRun struct {
	st         *runState
	dev        *simt.Device
	opt        Options
	res        *Result
	tk         *threadKernel
	bk         *blockKernel
	low, high  []graph.Vertex
	n          int // local vertex count (the Cross-Check grid)
	labelBound int
	maxRetries int
	backoff    time.Duration
	bytes      int64

	ckptLabels, ckptProcessed []uint32
}

// newDeviceRun allocates g's working set on dev and prepares the kernel
// state under the given view. On success the caller owns the device
// reservation and must free() it.
func newDeviceRun(g *graph.CSR, opt Options, dev *simt.Device, view runView) (*deviceRun, error) {
	if opt.Profiler != nil && dev.Prof == nil {
		dev.Prof = opt.Profiler
	}
	n := g.NumVertices()
	arcs := g.NumArcs()

	st := newRunState(g, opt)
	// Device memory: CSR (offsets, targets, weights), hashtable arena,
	// labels, pruning flags, candidate buffer.
	bytes := int64(len(g.Offsets))*8 + arcs*4 + arcs*4 + st.arena.Bytes() + int64(n)*4*3
	if opt.CrossCheckEvery > 0 {
		bytes += int64(n) * 4
	}
	if err := dev.Alloc(bytes); err != nil {
		return nil, fmt.Errorf("nulpa: graph with %d arcs does not fit on device: %w", arcs, err)
	}

	res := &Result{DeviceBytes: bytes}
	if opt.TrackStats {
		res.HashStats = &hashtable.Stats{}
		st.arena.Stats = res.HashStats
	}
	st.countWork = simt.WantsWork(dev.Prof)
	if st.countWork && st.arena.Stats == nil {
		// Work counters want per-kernel probe attribution even when the
		// caller did not ask for the Result-level stats.
		st.arena.Stats = &hashtable.Stats{}
	}
	if view.labels != nil {
		copy(st.labels, view.labels)
	}

	limit := view.propagate
	if limit <= 0 {
		limit = n
	}
	low, high := partitionByDegree(g, opt.SwitchDegree, limit)

	r := &deviceRun{
		st:   st,
		dev:  dev,
		opt:  opt,
		res:  res,
		tk:   &threadKernel{kernelWork: kernelWork{runState: st}, list: low, cand: make([]uint32, len(low))},
		bk:   &blockKernel{kernelWork: kernelWork{runState: st}, list: high, blockDim: opt.BlockDim},
		low:  low,
		high: high,
		n:    n,

		labelBound: view.labelBound,
		maxRetries: opt.MaxRetries,
		backoff:    opt.RetryBackoff,
		bytes:      bytes,
	}
	if r.labelBound <= 0 {
		r.labelBound = n
	}
	if r.maxRetries <= 0 {
		r.maxRetries = 3
	}
	if r.backoff <= 0 {
		r.backoff = 100 * time.Microsecond
	}
	if opt.Faults != nil && dev.Faults == nil {
		dev.Faults = opt.Faults
	}
	// Checkpointing: with an injector (or Checkpoint forced), the labels and
	// pruning flags are snapshotted before every iteration so a faulted
	// attempt can be rolled back and re-executed. The snapshot is two O(V)
	// copies per iteration — cheap next to the kernels' O(E) work.
	if opt.Faults != nil || opt.Checkpoint {
		r.ckptLabels = make([]uint32, n)
		r.ckptProcessed = make([]uint32, n)
	}
	return r, nil
}

// free releases the run's device memory reservation.
func (r *deviceRun) free() { r.dev.Free(r.bytes) }

// iterate executes one ν-LPA iteration on the run's device, including the
// rollback/retry recovery ladder. It is the body detectSIMT hands to
// engine.Loop and detectSharded hands (per shard) to engine.ShardLoop.
func (r *deviceRun) iterate(ctx context.Context, iter int) engine.IterOutcome {
	st, res, opt, dev := r.st, r.res, r.opt, r.dev
	// ctx carries the iteration's trace span (shadowing the run context),
	// so kernel launches below nest under the iteration and recovery
	// activity lands on it as events.
	ispan := trace.FromContext(ctx)
	st.pickless = opt.PickLessEvery > 0 && iter%opt.PickLessEvery == 0
	crosscheck := opt.CrossCheckEvery > 0 && iter%opt.CrossCheckEvery == 0
	if r.ckptLabels != nil {
		copy(r.ckptLabels, st.labels)
		copy(r.ckptProcessed, st.processed)
	}

	// Recovery loop: attempt the iteration, and on a launch fault or a
	// corrupted label array roll back to the checkpoint and retry with
	// exponential backoff, up to maxRetries consecutive attempts.
	var rec IterStat
	var hashBase hashtable.StatsSnapshot
	var casBase simt.ContentionCounts
	for attempt := 0; ; attempt++ {
		rec, hashBase = st.beginIteration(res, crosscheck, opt.Profiler != nil)
		rec.Retries = int64(attempt)
		casBase = simt.ContentionSnapshot()

		err := func() error {
			if len(r.low) > 0 {
				t0 := time.Now()
				if err := dev.LaunchKernel1D(ctx, len(r.low), opt.BlockDim, r.tk); err != nil {
					return err
				}
				rec.ThreadKernel = time.Since(t0)
			}
			if len(r.high) > 0 {
				t0 := time.Now()
				if err := dev.LaunchKernel(ctx, len(r.high), opt.BlockDim, r.bk); err != nil {
					return err
				}
				rec.BlockKernel = time.Since(t0)
			}
			if crosscheck {
				ck := &crossCheckKernel{kernelWork{runState: st}}
				t0 := time.Now()
				if err := dev.LaunchKernel1D(ctx, r.n, opt.BlockDim, ck); err != nil {
					return err
				}
				rec.CrossKernel = time.Since(t0)
			}
			return nil
		}()
		if err == nil {
			// Transient-memory fault injection happens after the kernels
			// so a flip can hit any position the iteration wrote.
			opt.Faults.CorruptLabels(st.labels)
			if r.ckptLabels != nil && !labelsValid(st.labels, r.labelBound) {
				mCorruptions.Inc()
				ispan.Event("fault:corrupt-labels", map[string]any{"attempt": int64(attempt)})
				err = ErrCorruptLabels
			}
		}
		if err == nil {
			break
		}
		// Cancellation and deadline expiry are not faults; surface them
		// as the run's typed interrupt without burning retries.
		if cerr := ctx.Err(); cerr != nil {
			return engine.IterOutcome{Err: engine.CtxErr(cerr)}
		}
		if r.ckptLabels == nil {
			// No checkpoint to roll back to (fault without injection or
			// Checkpoint): the run cannot be repaired in place.
			return engine.IterOutcome{Err: fmt.Errorf("%w: iteration %d: %v", ErrFaulted, iter, err)}
		}
		copy(st.labels, r.ckptLabels)
		copy(st.processed, r.ckptProcessed)
		res.Rollbacks++
		mRollbacks.Inc()
		ispan.Event("rollback", map[string]any{"attempt": int64(attempt), "error": err.Error()})
		if attempt+1 >= r.maxRetries {
			return engine.IterOutcome{Err: fmt.Errorf("%w: iteration %d failed %d consecutive attempts, last: %v",
				ErrFaulted, iter, attempt+1, err)}
		}
		res.Retries++
		mRetries.Inc()
		ispan.Event("retry", map[string]any{"attempt": int64(attempt + 1)})
		if !sleepCtx(ctx, r.backoff<<attempt) {
			return engine.IterOutcome{Err: engine.CtxErr(ctx.Err())}
		}
	}

	rec.CASRetries = simt.ContentionSnapshot().Sub(casBase).Total()
	return st.endIteration(res, rec, hashBase, opt.PickLessEvery)
}

// labelsValid is the partition-validity check the recovery path runs after
// every checkpointed iteration: a label is a vertex id, so any value >= n is
// corruption (a bit-flip that lands inside [0, n) is indistinguishable from
// a community move and is left to converge away).
func labelsValid(labels []uint32, n int) bool {
	for _, c := range labels {
		if int(c) >= n {
			return false
		}
	}
	return true
}

// sleepCtx sleeps for d or until ctx is done; it reports false on
// cancellation.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// countPruned counts vertices whose processed flag is set — the vertices the
// coming iteration will skip. Called between kernel launches, so plain reads
// are safe (the SM goroutines have been joined).
func countPruned(flags []uint32) int64 {
	var c int64
	for _, f := range flags {
		if f == 1 {
			c++
		}
	}
	return c
}

// partitionByDegree splits vertices into the thread-per-vertex list (degree
// in [1, switchDegree)) and the block-per-vertex list (degree >=
// switchDegree). Isolated vertices are excluded — they keep their own label
// forever. A switchDegree of 0 sends every vertex to the block kernel. Only
// vertices below limit are listed: a shard propagates its owned rows while
// ghost rows are read-only halo state.
func partitionByDegree(g *graph.CSR, switchDegree, limit int) (low, high []graph.Vertex) {
	n := limit
	if n > g.NumVertices() {
		n = g.NumVertices()
	}
	for i := 0; i < n; i++ {
		d := g.Degree(graph.Vertex(i))
		if d == 0 {
			continue
		}
		if d < switchDegree {
			low = append(low, graph.Vertex(i))
		} else {
			high = append(high, graph.Vertex(i))
		}
	}
	return low, high
}

// kernelWork is the work ledger embedded by every ν-LPA kernel: the
// launch's counters, which TakeWork drains.
type kernelWork struct {
	*runState
	work simt.WorkAccum
}

// TakeWork implements simt.WorkReportingKernel, draining the launch's work
// counters; hashtable probes are attributed from the arena stats delta
// since the previous kernel drain.
func (k *kernelWork) TakeWork() (edgeVisits, labelFlips, hashProbes, hashCollisions, activeVertices int64) {
	ev, lf, _, _, av := k.work.Take()
	if stats := k.arena.Stats; stats != nil {
		cur := stats.Snapshot()
		d := cur.Sub(k.lastHash)
		k.lastHash = cur
		hashProbes, hashCollisions = d.Probes, d.Collisions
	}
	k.iterEdges += ev
	k.iterActive += av
	return ev, lf, hashProbes, hashCollisions, av
}

// threadKernel is the thread-per-vertex kernel for low-degree vertices. Two
// lockstep phases: phase 0 reads neighbour labels and picks the candidate,
// phase 1 writes the move. All lanes of a block therefore read before any
// lane writes — the exact interleaving that produces community swaps on
// lockstep hardware.
type threadKernel struct {
	kernelWork
	list []graph.Vertex
	cand []uint32
}

func (k *threadKernel) NumPhases() int { return 2 }

// KernelName implements simt.NamedKernel for profiling.
func (k *threadKernel) KernelName() string { return "thread-per-vertex" }

func (k *threadKernel) Phase(p int, t *simt.Thread) {
	gid := t.GlobalID()
	if gid >= len(k.list) {
		return
	}
	i := k.list[gid]
	switch p {
	case 0:
		c, scanned := k.candidate(i)
		k.cand[gid] = c
		if scanned && k.countWork {
			k.work.ActiveVertices.Add(1)
			k.work.EdgeVisits.Add(int64(k.g.Degree(i)))
		}
	case 1:
		if !k.commit(i, k.cand[gid]) {
			return
		}
		atomic.AddInt64(&k.deltaN, 1)
		woken := k.wake(i)
		if k.countWork {
			k.work.LabelFlips.Add(1)
			k.work.EdgeVisits.Add(int64(woken)) // neighbour wake-up scan
		}
	}
}

// blockKernel is the block-per-vertex kernel for high-degree vertices. One
// thread block cooperates on one vertex: strided clear, strided atomic
// accumulation into the shared hashtable, a parallel max-reduce (each lane
// scans a strided share of the table into shared memory, then lane 0 reduces
// the partials — the hashtableMaxKey "in parallel" of Algorithm 1), then the
// move. Shared memory layout: word 0 = skip flag, word 1 = moved flag,
// words [2, 2+2·blockDim) = per-lane (key, weight-bits) partial maxima.
//
// A block dispatches only the lanes its vertex's table can use (BlockLanes):
// a lane at or beyond p1 ≥ degree owns no table slot and no arc, so in every
// phase it would clear, accumulate, scan and wake nothing. Strides stay
// BlockDim, so slot and arc ownership — and hence the result — is exactly
// that of a full block.
type blockKernel struct {
	kernelWork
	list     []graph.Vertex
	blockDim int
}

func (k *blockKernel) NumPhases() int     { return 6 }
func (k *blockKernel) SharedUint64s() int { return 2 + 2*k.blockDim }

// BlockLanes implements simt.BlockLanesKernel: the table capacity p1 of the
// block's vertex.
func (k *blockKernel) BlockLanes(b int) int {
	return int(hashtable.CapacityFor(k.g.Degree(k.list[b])))
}

// KernelName implements simt.NamedKernel for profiling.
func (k *blockKernel) KernelName() string { return "block-per-vertex" }

func (k *blockKernel) Phase(p int, t *simt.Thread) {
	if t.Block >= len(k.list) {
		return
	}
	i := k.list[t.Block]
	switch p {
	case 0: // lane 0 claims the vertex
		if t.Lane != 0 {
			return
		}
		if !k.claim(i) {
			t.Shared[0] = 1
			return
		}
		if k.countWork {
			k.work.ActiveVertices.Add(1)
			k.work.EdgeVisits.Add(int64(k.g.Degree(i)))
		}
	case 1: // strided hashtable clear
		if t.Shared[0] == 1 {
			return
		}
		tb := k.arena.TableFor(k.g.Offset(i), k.g.Degree(i))
		tb.Clear(t.Lane, t.BlockDim)
	case 2: // strided atomic accumulation of neighbour labels
		if t.Shared[0] == 1 {
			return
		}
		tb := k.arena.TableFor(k.g.Offset(i), k.g.Degree(i))
		ts, ws := k.g.Neighbors(i)
		for idx := t.Lane; idx < len(ts); idx += t.BlockDim {
			j := ts[idx]
			if j == i {
				continue
			}
			cj := simt.AtomicLoadUint32(k.labels, int(j))
			tb.Accumulate(cj, float64(ws[idx]), true)
		}
	case 3: // parallel max-reduce, step 1: per-lane partial maxima
		if t.Shared[0] == 1 {
			return
		}
		tb := k.arena.TableFor(k.g.Offset(i), k.g.Degree(i))
		bestK, bestW, ok := tb.MaxKeyStrided(t.Lane, t.BlockDim)
		slot := 2 + 2*t.Lane
		if !ok {
			t.Shared[slot] = uint64(hashtable.EmptyKey)
			return
		}
		t.Shared[slot] = uint64(bestK)
		t.Shared[slot+1] = math.Float64bits(bestW)
	case 4: // parallel max-reduce, step 2 + move decision (lane 0)
		if t.Shared[0] == 1 || t.Lane != 0 {
			return
		}
		t.Shared[1] = 0
		c := hashtable.EmptyKey
		var w float64
		// Only dispatched lanes wrote a partial; the slots of the others
		// still hold the per-block zero, which would read as key 0.
		for lane := 0; lane < t.Lanes; lane++ {
			slot := 2 + 2*lane
			lk := uint32(t.Shared[slot])
			if lk == hashtable.EmptyKey {
				continue
			}
			lw := math.Float64frombits(t.Shared[slot+1])
			if c == hashtable.EmptyKey || lw > w {
				c, w = lk, lw
			}
		}
		if !k.commit(i, c) {
			return
		}
		atomic.AddInt64(&k.deltaN, 1)
		t.Shared[1] = 1
		if k.countWork {
			k.work.LabelFlips.Add(1)
			// Phase 5's strided wake-up scans the full neighbourhood;
			// counted here once rather than per lane.
			k.work.EdgeVisits.Add(int64(k.g.Degree(i)))
		}
	case 5: // strided neighbour wake-up on move
		if t.Shared[0] == 1 || t.Shared[1] == 0 {
			return
		}
		ts, _ := k.g.Neighbors(i)
		for idx := t.Lane; idx < len(ts); idx += t.BlockDim {
			simt.AtomicStoreUint32(k.processed, int(ts[idx]), 0)
		}
	}
}

// crossCheckKernel runs the Cross-Check revert (runState.revert) over every
// vertex. The check and revert are fused in a single phase, so within a
// block the first of a swapped pair reverts and the partner then observes a
// good change — the asymmetry that breaks the swap cycle (§4.1). Across
// blocks the same asymmetry arises from asynchronous SM execution.
//
// Its work ledger counts each revert as a label flip back. The kernel does
// not touch the hashtable, so the probe delta it drains is ~0 and keeps the
// per-kernel ledger exhaustive.
type crossCheckKernel struct {
	kernelWork
}

func (k *crossCheckKernel) NumPhases() int { return 1 }

// KernelName implements simt.NamedKernel for profiling.
func (k *crossCheckKernel) KernelName() string { return "cross-check" }

func (k *crossCheckKernel) Phase(_ int, t *simt.Thread) {
	i := t.GlobalID()
	if i >= len(k.labels) || !k.revert(i) {
		return
	}
	atomic.AddInt64(&k.reverts, 1)
	if k.countWork {
		k.work.LabelFlips.Add(1)
	}
}
