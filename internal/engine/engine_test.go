package engine

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"nulpa/internal/graph"
	"nulpa/internal/telemetry"
)

// fakeDetector is a registry test double.
type fakeDetector struct{ name string }

func (d fakeDetector) Name() string { return d.name }
func (d fakeDetector) Detect(g *graph.CSR, opt Options) (*Result, error) {
	return NewResult(make([]uint32, g.NumVertices())), nil
}

// registerForTest registers d until the test ends. The global registry
// outlives a single test, so without the cleanup a repeated run
// (go test -count=N) would register d again and panic on the duplicate.
func registerForTest(t *testing.T, d Detector) {
	t.Helper()
	Register(d)
	t.Cleanup(func() {
		regMu.Lock()
		defer regMu.Unlock()
		delete(registry, d.Name())
	})
}

func TestRegistry(t *testing.T) {
	// The global registry persists across tests; use unique names.
	registerForTest(t, fakeDetector{"test-zzz"})
	registerForTest(t, fakeDetector{"test-aaa"})

	if _, ok := Get("test-aaa"); !ok {
		t.Fatal("registered detector not found")
	}
	if _, ok := Get("test-missing"); ok {
		t.Fatal("unregistered detector found")
	}
	if _, err := MustGet("test-missing"); err == nil {
		t.Fatal("MustGet of missing detector did not error")
	}

	names := List()
	posAAA, posZZZ := -1, -1
	for i, n := range names {
		switch n {
		case "test-aaa":
			posAAA = i
		case "test-zzz":
			posZZZ = i
		}
	}
	if posAAA < 0 || posZZZ < 0 {
		t.Fatalf("List() = %v, missing test detectors", names)
	}
	if posAAA > posZZZ {
		t.Errorf("List() not sorted: %v", names)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("empty name", func() { Register(fakeDetector{""}) })
	registerForTest(t, fakeDetector{"test-dup"})
	mustPanic("duplicate", func() { Register(fakeDetector{"test-dup"}) })
}

func TestLoopConvergesOnThreshold(t *testing.T) {
	// ΔN decays 8, 4, 2, 1, 0, ...; threshold 2 stops after the ΔN=1
	// iteration (strictly below).
	deltas := []int64{8, 4, 2, 1, 0}
	lr := Loop(LoopConfig{MaxIterations: 10, Threshold: 2}, func(_ context.Context, iter int) IterOutcome {
		d := deltas[iter]
		return IterOutcome{Record: telemetry.IterRecord{Moves: d, DeltaN: d}}
	})
	if !lr.Converged || lr.Iterations != 4 {
		t.Fatalf("converged=%v iterations=%d, want true/4", lr.Converged, lr.Iterations)
	}
	if len(lr.Trace) != 4 {
		t.Fatalf("trace has %d records", len(lr.Trace))
	}
	for i, rec := range lr.Trace {
		if rec.Iter != i {
			t.Errorf("trace[%d].Iter = %d", i, rec.Iter)
		}
		if rec.Duration <= 0 {
			t.Errorf("trace[%d].Duration = %v, want > 0", i, rec.Duration)
		}
	}
}

func TestLoopExhaustsMaxIterations(t *testing.T) {
	lr := Loop(LoopConfig{MaxIterations: 3, Threshold: 1}, func(context.Context, int) IterOutcome {
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: 5}}
	})
	if lr.Converged || lr.Iterations != 3 {
		t.Fatalf("converged=%v iterations=%d, want false/3", lr.Converged, lr.Iterations)
	}
}

func TestLoopForceContinue(t *testing.T) {
	// Every even iteration is "pick-less": ΔN=0 there must not converge.
	lr := Loop(LoopConfig{MaxIterations: 6, Threshold: 1}, func(_ context.Context, iter int) IterOutcome {
		if iter%2 == 0 {
			return IterOutcome{Record: telemetry.IterRecord{DeltaN: 0}, ForceContinue: true}
		}
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: 3}}
	})
	if lr.Converged || lr.Iterations != 6 {
		t.Fatalf("converged=%v iterations=%d, want false/6", lr.Converged, lr.Iterations)
	}
}

func TestLoopStop(t *testing.T) {
	lr := Loop(LoopConfig{MaxIterations: 10, Threshold: 0}, func(_ context.Context, iter int) IterOutcome {
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: 9}, Stop: iter == 2}
	})
	if !lr.Converged || lr.Iterations != 3 {
		t.Fatalf("converged=%v iterations=%d, want true/3", lr.Converged, lr.Iterations)
	}
}

func TestLoopKeepsDetectorDuration(t *testing.T) {
	want := 42 * time.Second
	lr := Loop(LoopConfig{MaxIterations: 1, Threshold: 1}, func(context.Context, int) IterOutcome {
		return IterOutcome{Record: telemetry.IterRecord{Duration: want}}
	})
	if lr.Trace[0].Duration != want {
		t.Fatalf("Duration = %v, want %v", lr.Trace[0].Duration, want)
	}
}

func TestLoopFeedsProfiler(t *testing.T) {
	rec := telemetry.NewRecorder()
	Loop(LoopConfig{MaxIterations: 4, Threshold: 0, Profiler: rec}, func(context.Context, int) IterOutcome {
		return IterOutcome{Record: telemetry.IterRecord{DeltaN: 1}}
	})
	if got := len(rec.IterRecords()); got != 4 {
		t.Fatalf("profiler received %d records, want 4", got)
	}
}

func TestCompressLabelsBasics(t *testing.T) {
	labels := []uint32{7, 7, 3, 9, 3, 7}
	out, k := CompressLabels(labels)
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	// First-appearance order: 7→0, 3→1, 9→2.
	want := []uint32{0, 0, 1, 2, 1, 0}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
	if out2, k2 := CompressLabels(nil); len(out2) != 0 || k2 != 0 {
		t.Errorf("CompressLabels(nil) = %v, %d", out2, k2)
	}
}

// TestCompressLabelsPreservesPartition is the property test: for random
// label assignments, compression must keep the same-community relation
// exactly, produce dense ids in [0, k), and be idempotent.
func TestCompressLabelsPreservesPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		labels := make([]uint32, n)
		for i := range labels {
			labels[i] = rng.Uint32() >> uint(rng.Intn(24)) // mixed sparse/dense universes
		}
		out, k := CompressLabels(labels)
		if len(out) != n {
			t.Fatalf("trial %d: %d outputs for %d labels", trial, len(out), n)
		}
		distinct := map[uint32]bool{}
		for i := 0; i < n; i++ {
			if int(out[i]) >= k {
				t.Fatalf("trial %d: label %d not in [0,%d)", trial, out[i], k)
			}
			distinct[out[i]] = true
			// Pairwise partition check against a random partner (full
			// quadratic check on small n).
			j := rng.Intn(n)
			if (labels[i] == labels[j]) != (out[i] == out[j]) {
				t.Fatalf("trial %d: partition broken at (%d,%d)", trial, i, j)
			}
		}
		if n <= 40 {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if (labels[i] == labels[j]) != (out[i] == out[j]) {
						t.Fatalf("trial %d: partition broken at (%d,%d)", trial, i, j)
					}
				}
			}
		}
		if len(distinct) != k {
			t.Fatalf("trial %d: k=%d but %d distinct labels", trial, k, len(distinct))
		}
		again, k2 := CompressLabels(out)
		if k2 != k {
			t.Fatalf("trial %d: idempotence broke count", trial)
		}
		for i := range again {
			if again[i] != out[i] {
				t.Fatalf("trial %d: compression not idempotent", trial)
			}
		}
	}
}

func TestNewResultCompresses(t *testing.T) {
	res := NewResult([]uint32{5, 5, 8})
	if res.Communities != 2 || res.Labels[0] != 0 || res.Labels[2] != 1 {
		t.Fatalf("NewResult = %+v", res)
	}
}

func TestResultClone(t *testing.T) {
	var nilRes *Result
	if nilRes.Clone() != nil {
		t.Fatal("nil.Clone() != nil")
	}
	r := NewResult([]uint32{5, 5, 8})
	r.Iterations = 3
	r.Trace = []telemetry.IterRecord{{Iter: 0, DeltaN: 2}}
	c := r.Clone()
	c.Labels[0] = 99
	c.Trace[0].DeltaN = 77
	if r.Labels[0] == 99 || r.Trace[0].DeltaN == 77 {
		t.Fatal("Clone shares backing arrays with the original")
	}
	if c.Iterations != 3 || c.Communities != r.Communities {
		t.Fatalf("Clone dropped scalar fields: %+v", c)
	}
}
