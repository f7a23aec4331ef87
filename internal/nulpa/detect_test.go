package nulpa

import (
	"errors"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/quality"
	"nulpa/internal/simt"
)

func detect(t *testing.T, g *graph.CSR, opt Options) *Result {
	t.Helper()
	res, err := Detect(g, opt)
	if err != nil {
		t.Fatalf("Detect: %v", err)
	}
	return res
}

func checkLabelsValid(t *testing.T, g *graph.CSR, labels []uint32) {
	t.Helper()
	if len(labels) != g.NumVertices() {
		t.Fatalf("got %d labels for %d vertices", len(labels), g.NumVertices())
	}
	for i, c := range labels {
		if int(c) >= g.NumVertices() {
			t.Fatalf("labels[%d] = %d out of range", i, c)
		}
	}
}

func TestDetectPlantedRecovery(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 3})
	for _, backend := range []Backend{BackendSIMT, BackendDirect} {
		opt := DefaultOptions()
		opt.Backend = backend
		res := detect(t, g, opt)
		checkLabelsValid(t, g, res.Labels)
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
			t.Errorf("backend=%v: NMI = %.3f, want >= 0.85", backend, nmi)
		}
		if q := quality.Modularity(g, res.Labels); q < 0.5 {
			t.Errorf("backend=%v: Q = %.3f, want >= 0.5", backend, q)
		}
		if !res.Converged {
			t.Errorf("backend=%v: did not converge in %d iterations", backend, res.Iterations)
		}
	}
}

// TestSwapPathologyWithoutMitigation reproduces the paper's core
// observation: on lockstep hardware, plain asynchronous LPA livelocks on
// symmetric structures — every pair of matched vertices exchanges labels
// forever and the run burns all 20 iterations.
func TestSwapPathologyWithoutMitigation(t *testing.T) {
	g := gen.MatchedPairs(512)
	opt := DefaultOptions()
	opt.PickLessEvery = 0 // no mitigation
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if res.Converged {
		t.Fatalf("plain lockstep LPA converged on matched pairs in %d iterations; swaps should prevent it", res.Iterations)
	}
	if res.Iterations != opt.MaxIterations {
		t.Errorf("iterations = %d, want %d", res.Iterations, opt.MaxIterations)
	}
}

// TestPickLessBreaksSwaps shows PL4 fixes the livelock and merges each pair.
func TestPickLessBreaksSwaps(t *testing.T) {
	g := gen.MatchedPairs(512)
	opt := DefaultOptions() // PL4
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("PL4 did not converge on matched pairs (%d iterations)", res.Iterations)
	}
	// Each pair must share a label: the lower vertex id.
	for v := 0; v+1 < 512; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged: labels %d/%d", v, v+1, res.Labels[v], res.Labels[v+1])
		}
	}
	if n := quality.CountCommunities(res.Labels); n != 256 {
		t.Errorf("communities = %d, want 256", n)
	}
}

// TestCrossCheckBreaksSwaps shows the CC method also resolves the livelock.
func TestCrossCheckBreaksSwaps(t *testing.T) {
	g := gen.MatchedPairs(512)
	opt := DefaultOptions()
	opt.PickLessEvery = 0
	opt.CrossCheckEvery = 1
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("CC1 did not converge on matched pairs (%d iterations)", res.Iterations)
	}
	if res.Reverts == 0 {
		t.Error("CC converged without any reverts — test is not exercising the revert path")
	}
	for v := 0; v+1 < 512; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged", v, v+1)
		}
	}
}

func TestCompleteBipartiteSwap(t *testing.T) {
	// K(16,16): the two sides are perfectly symmetric; without mitigation
	// the sides adopt each other's dominant label in lockstep and oscillate.
	g := gen.CompleteBipartite(16, 16)
	noMit := DefaultOptions()
	noMit.PickLessEvery = 0
	noMit.Device = simt.NewDevice(1)
	r1 := detect(t, g, noMit)
	if r1.Converged {
		t.Log("note: unmitigated run converged (possible on some schedules)")
	}
	withPL := DefaultOptions()
	withPL.Device = simt.NewDevice(1)
	r2 := detect(t, g, withPL)
	if !r2.Converged {
		t.Fatalf("PL4 did not converge on K(16,16)")
	}
	// All vertices end in one community (label 0, the global minimum).
	for v, c := range r2.Labels {
		if c != 0 {
			t.Fatalf("vertex %d has label %d, want 0", v, c)
		}
	}
}

func TestPickLessEveryIterationMonotone(t *testing.T) {
	// With PL every iteration, every move strictly decreases a vertex's
	// label, so the final label can never exceed the vertex id.
	g := gen.ErdosRenyi(300, 1200, 7)
	opt := DefaultOptions()
	opt.PickLessEvery = 1
	res := detect(t, g, opt)
	for v, c := range res.Labels {
		if c > uint32(v) {
			t.Fatalf("vertex %d ended with label %d > own id under permanent Pick-Less", v, c)
		}
	}
}

func TestIsolatedVerticesKeepOwnLabel(t *testing.T) {
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 1, W: 1}}, 5, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := detect(t, g, DefaultOptions())
	for v := 2; v < 5; v++ {
		if res.Labels[v] != uint32(v) {
			t.Errorf("isolated vertex %d got label %d", v, res.Labels[v])
		}
	}
	if res.Labels[0] != res.Labels[1] {
		t.Error("connected pair not merged")
	}
}

func TestSwitchDegreeExtremes(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 5})
	for _, sd := range []int{0, 1, 8, 32, 1 << 20} {
		opt := DefaultOptions()
		opt.SwitchDegree = sd
		res := detect(t, g, opt)
		checkLabelsValid(t, g, res.Labels)
		// LPA's local optimum shifts with processing order, so mixed-kernel
		// splits legitimately land on merged communities for some seeds;
		// require a sane recovery, not a perfect one.
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.6 {
			t.Errorf("switchDegree=%d: NMI = %.3f", sd, nmi)
		}
		if !res.Converged {
			t.Errorf("switchDegree=%d: did not converge", sd)
		}
	}
}

func TestAllProbingStrategies(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 6})
	for _, pr := range []hashtable.Probing{hashtable.Linear, hashtable.Quadratic, hashtable.Double, hashtable.QuadraticDouble} {
		opt := DefaultOptions()
		opt.Probing = pr
		res := detect(t, g, opt)
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
			t.Errorf("probing=%v: NMI = %.3f", pr, nmi)
		}
	}
}

func TestValueKinds(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 8})
	for _, vk := range []hashtable.ValueKind{hashtable.Float32, hashtable.Float64} {
		opt := DefaultOptions()
		opt.ValueKind = vk
		res := detect(t, g, opt)
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
			t.Errorf("kind=%v: NMI = %.3f", vk, nmi)
		}
	}
}

func TestCoalescedTableVariant(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 9})
	opt := DefaultOptions()
	opt.Probing = hashtable.Coalesced
	res := detect(t, g, opt)
	if nmi := quality.NMI(res.Labels, truth); nmi < 0.8 {
		t.Errorf("coalesced: NMI = %.3f", nmi)
	}
}

func TestHybridMethod(t *testing.T) {
	g := gen.MatchedPairs(256)
	opt := DefaultOptions()
	opt.PickLessEvery = 2
	opt.CrossCheckEvery = 3
	opt.Device = simt.NewDevice(1)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("hybrid did not converge")
	}
	for v := 0; v+1 < 256; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged", v, v+1)
		}
	}
}

func TestDeviceOOM(t *testing.T) {
	g := gen.ErdosRenyi(1000, 5000, 1)
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(2)
	opt.Device.MemBudget = 1024 // far too small
	_, err := Detect(g, opt)
	if err == nil {
		t.Fatal("expected out-of-memory error")
	}
	// Detect must wrap, not flatten, the device error so callers can
	// distinguish OOM from other failures.
	if !errors.Is(err, simt.ErrOutOfMemory) {
		t.Errorf("Detect error %v does not unwrap to simt.ErrOutOfMemory", err)
	}
	// Budget must be fully released after the failed attempt.
	if used := opt.Device.MemUsed(); used != 0 {
		t.Errorf("device leaked %d bytes", used)
	}
}

func TestDeviceMemoryReleased(t *testing.T) {
	g := gen.ErdosRenyi(500, 2000, 2)
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(2)
	res := detect(t, g, opt)
	if res.DeviceBytes == 0 {
		t.Error("run reserved no device memory")
	}
	if used := opt.Device.MemUsed(); used != 0 {
		t.Errorf("device holds %d bytes after run", used)
	}
}

func TestOptionValidation(t *testing.T) {
	g := gen.Cycle(8)
	bad := []Options{
		{MaxIterations: 0, Tolerance: 0.05},
		{MaxIterations: 10, Tolerance: -0.1},
		{MaxIterations: 10, Tolerance: 1.5},
		{MaxIterations: 10, Tolerance: 0.05, PickLessEvery: -1},
		{MaxIterations: 10, Tolerance: 0.05, SwitchDegree: -2},
	}
	for i, opt := range bad {
		if _, err := Detect(g, opt); err == nil {
			t.Errorf("case %d: invalid options accepted", i)
		}
	}
}

func TestDeterministicOnSingleSM(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(600, 6, 4))
	run := func() []uint32 {
		opt := DefaultOptions()
		opt.Device = simt.NewDevice(1)
		return detect(t, g, opt).Labels
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic on 1 SM at vertex %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestTrackStats(t *testing.T) {
	g := gen.ErdosRenyi(400, 2400, 3)
	opt := DefaultOptions()
	opt.TrackStats = true
	res := detect(t, g, opt)
	if res.HashStats == nil || res.HashStats.Accumulates.Load() == 0 {
		t.Error("TrackStats produced no accounting")
	}
	if res.HashStats.Probes.Load() < res.HashStats.Accumulates.Load() {
		t.Error("fewer probes than accumulates")
	}
}

// TestDeltaHistoryShape checks the per-iteration ΔN history the Trace
// carries: one entry per iteration, summing to the net move count.
func TestDeltaHistoryShape(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 200, Communities: 4, DegIn: 10, DegOut: 0.5, Seed: 12})
	res := detect(t, g, DefaultOptions())
	if len(res.Trace) != res.Iterations {
		t.Fatalf("history length %d != iterations %d", len(res.Trace), res.Iterations)
	}
	var sum int64
	for _, rec := range res.Trace {
		sum += rec.DeltaN
	}
	if sum != res.Moves {
		t.Errorf("history sum %d != moves %d", sum, res.Moves)
	}
}

func TestEmptyAndTinyGraphs(t *testing.T) {
	empty, _ := graph.FromEdges(nil, 0, graph.DefaultBuildOptions())
	res := detect(t, empty, DefaultOptions())
	if len(res.Labels) != 0 {
		t.Errorf("empty graph produced %d labels", len(res.Labels))
	}
	single, _ := graph.FromEdges(nil, 1, graph.DefaultBuildOptions())
	res = detect(t, single, DefaultOptions())
	if len(res.Labels) != 1 || res.Labels[0] != 0 {
		t.Errorf("single vertex labels = %v", res.Labels)
	}
	pair, _ := graph.FromEdges([]graph.Edge{{U: 0, V: 1, W: 1}}, 2, graph.DefaultBuildOptions())
	res = detect(t, pair, DefaultOptions())
	if res.Labels[0] != res.Labels[1] {
		t.Errorf("pair labels = %v, want merged", res.Labels)
	}
}

func TestDirectBackendMatchesSIMTQuality(t *testing.T) {
	g := gen.Web(gen.DefaultWeb(2000, 8, 21))
	optS := DefaultOptions()
	optS.Device = simt.NewDevice(4)
	rs := detect(t, g, optS)
	optD := DefaultOptions()
	optD.Backend = BackendDirect
	rd := detect(t, g, optD)
	qs := quality.Modularity(g, rs.Labels)
	qd := quality.Modularity(g, rd.Labels)
	if qs < 0.2 || qd < 0.2 {
		t.Errorf("low modularity: simt=%.3f direct=%.3f", qs, qd)
	}
	if diff := qs - qd; diff > 0.15 || diff < -0.15 {
		t.Errorf("backends disagree on quality: simt=%.3f direct=%.3f", qs, qd)
	}
}

func TestStarGraphBlockKernel(t *testing.T) {
	// Star with 4096 leaves: hub degree far above any block size, so the
	// strided accumulate and neighbour wake-up paths get real coverage.
	g := gen.Star(4097)
	opt := DefaultOptions()
	res := detect(t, g, opt)
	checkLabelsValid(t, g, res.Labels)
	if n := quality.CountCommunities(res.Labels); n != 1 {
		t.Errorf("star split into %d communities, want 1", n)
	}
}

func TestSelfLoopsIgnored(t *testing.T) {
	opts := graph.BuildOptions{Symmetrize: true, DropSelfLoops: false, SumDuplicates: true}
	g, err := graph.FromEdges([]graph.Edge{{U: 0, V: 0, W: 50}, {U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := detect(t, g, DefaultOptions())
	// The heavy self loop must not pin vertex 0 to itself.
	if res.Labels[0] != res.Labels[1] {
		t.Errorf("self loop affected propagation: labels=%v", res.Labels)
	}
}

// TestSelfLoopOnlyBlockVertexKeepsLabel covers a block-kernel vertex whose
// table stays empty: its only arcs are self loops, so it has no candidate
// label and must keep its own. Its block dispatches fewer lanes than
// BlockDim, so the max-reduce must ignore the partial slots of lanes that
// never ran (their zeroed words would otherwise read as label 0).
func TestSelfLoopOnlyBlockVertexKeepsLabel(t *testing.T) {
	edges := []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 1}}
	for i := 0; i < 40; i++ {
		edges = append(edges, graph.Edge{U: 3, V: 3, W: 1})
	}
	g, err := graph.FromEdges(edges, 4, graph.BuildOptions{Symmetrize: true, DropSelfLoops: false, SumDuplicates: false})
	if err != nil {
		t.Fatal(err)
	}
	if d := g.Degree(3); d < DefaultOptions().SwitchDegree {
		t.Fatalf("vertex 3 has degree %d, want a block-kernel vertex", d)
	}
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(1)
	if got := detect(t, g, opt).Labels[3]; got != 3 {
		t.Errorf("self-loop-only vertex 3 moved to label %d", got)
	}
}

func TestDisablePruningSameQuality(t *testing.T) {
	g, truth := gen.Planted(gen.PlantedConfig{N: 400, Communities: 8, DegIn: 14, DegOut: 0.5, Seed: 17})
	for _, backend := range []Backend{BackendSIMT, BackendDirect} {
		opt := DefaultOptions()
		opt.Backend = backend
		opt.DisablePruning = true
		res := detect(t, g, opt)
		if !res.Converged {
			t.Errorf("backend=%v: no-pruning run did not converge", backend)
		}
		if nmi := quality.NMI(res.Labels, truth); nmi < 0.85 {
			t.Errorf("backend=%v: no-pruning NMI = %.3f", backend, nmi)
		}
	}
}

func TestPruningReducesWork(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 2000, Communities: 20, DegIn: 10, DegOut: 0.5, Seed: 18})
	run := func(disable bool) int64 {
		opt := DefaultOptions()
		opt.DisablePruning = disable
		opt.TrackStats = true
		res := detect(t, g, opt)
		return res.HashStats.Accumulates.Load()
	}
	withPruning := run(false)
	without := run(true)
	if withPruning >= without {
		t.Errorf("pruning did not reduce hashtable work: %d vs %d accumulates", withPruning, without)
	}
}

func TestIterationTrace(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 300, Communities: 6, DegIn: 12, DegOut: 0.5, Seed: 19})
	for _, backend := range []Backend{BackendSIMT, BackendDirect} {
		opt := DefaultOptions()
		opt.Backend = backend
		opt.CrossCheckEvery = 2
		res := detect(t, g, opt)
		if len(res.Trace) != res.Iterations {
			t.Fatalf("backend=%v: trace length %d != iterations %d", backend, len(res.Trace), res.Iterations)
		}
		// Iteration 0 has Pick-Less (PL4) and Cross-Check (CC2) active.
		if !res.Trace[0].PickLess || !res.Trace[0].CrossCheck {
			t.Errorf("backend=%v: iteration 0 flags = %+v", backend, res.Trace[0])
		}
		if res.Iterations > 1 && res.Trace[1].PickLess {
			t.Errorf("backend=%v: iteration 1 should not be pick-less", backend)
		}
		var gross, reverts int64
		for _, it := range res.Trace {
			gross += it.Moves
			reverts += it.Reverts
			if it.Duration <= 0 {
				t.Errorf("backend=%v: non-positive iteration duration", backend)
			}
		}
		if gross-reverts != res.Moves {
			t.Errorf("backend=%v: trace moves %d - reverts %d != result moves %d", backend, gross, reverts, res.Moves)
		}
	}
}

func TestMultiSMCrossCheck(t *testing.T) {
	// Cross-Check with several SMs racing: the livelock must still break
	// even when swapped pairs land on different SMs.
	g := gen.MatchedPairs(1024)
	opt := DefaultOptions()
	opt.PickLessEvery = 0
	opt.CrossCheckEvery = 1
	opt.Device = simt.NewDevice(8)
	res := detect(t, g, opt)
	if !res.Converged {
		t.Fatalf("CC1 on 8 SMs did not converge (%d iterations)", res.Iterations)
	}
	for v := 0; v+1 < 1024; v += 2 {
		if res.Labels[v] != res.Labels[v+1] {
			t.Fatalf("pair (%d,%d) not merged", v, v+1)
		}
	}
}

func TestSingleIterationBudget(t *testing.T) {
	g, _ := gen.Planted(gen.PlantedConfig{N: 200, Communities: 4, DegIn: 10, DegOut: 0.5, Seed: 23})
	opt := DefaultOptions()
	opt.MaxIterations = 1
	res := detect(t, g, opt)
	if res.Iterations != 1 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	checkLabelsValid(t, g, res.Labels)
}

func TestTinyBlockDim(t *testing.T) {
	g := gen.Star(600) // hub degree 599 >> blockDim
	opt := DefaultOptions()
	opt.BlockDim = 32
	res := detect(t, g, opt)
	if n := quality.CountCommunities(res.Labels); n != 1 {
		t.Errorf("star with blockDim 32 split into %d communities", n)
	}
}

func TestWeightedPickLess(t *testing.T) {
	// Vertex 2 ties between communities {0,1} except for edge weights:
	// the heavier side must win even under Pick-Less.
	edges := []graph.Edge{
		{U: 0, V: 2, W: 1},
		{U: 1, V: 2, W: 5},
		{U: 0, V: 3, W: 3}, {U: 3, V: 4, W: 3}, // pad community 0
		{U: 1, V: 5, W: 3}, {U: 5, V: 6, W: 3}, // pad community 1
	}
	g, err := graph.FromEdges(edges, 7, graph.DefaultBuildOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := detect(t, g, DefaultOptions())
	if res.Labels[2] != res.Labels[1] {
		t.Errorf("vertex 2 ignored the weight-5 edge: labels=%v", res.Labels)
	}
}
