package nulpa

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"nulpa/internal/gen"
	"nulpa/internal/graph"
	"nulpa/internal/hashtable"
	"nulpa/internal/simt"
	"nulpa/internal/telemetry"
)

// goldenRun fingerprints one single-SM simt run: the final labels and, per
// iteration, the counters a kernel change must not move (moves, ΔN, reverts,
// edge visits, active vertices and the hashtable accumulate/probe/collision/
// fallback deltas). A profiler is attached so the work counters are live.
func goldenRun(t *testing.T, g *graph.CSR, probing hashtable.Probing, crossCheck int) string {
	t.Helper()
	opt := DefaultOptions()
	opt.Device = simt.NewDevice(1)
	opt.Probing = probing
	opt.CrossCheckEvery = crossCheck
	// 128 lanes: degree 32–63 vertices (p1 = 63) use half a block, while
	// degree ≥ 64 vertices (p1 ≥ 127) use every lane.
	opt.BlockDim = 128
	opt.TrackStats = true
	opt.Profiler = telemetry.NewRecorder()
	res := detect(t, g, opt)

	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	put(int64(len(res.Labels)))
	for _, c := range res.Labels {
		put(int64(c))
	}
	put(int64(res.Iterations))
	for _, r := range res.Trace {
		for _, v := range []int64{r.Moves, r.DeltaN, r.Reverts, r.EdgeVisits, r.ActiveVertices,
			r.HashAccumulates, r.HashProbes, r.HashCollisions, r.HashFallbacks} {
			put(v)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestOutputIdentityGolden pins the exact output of the simt backend on one
// SM — where a run is deterministic — for web and social stand-ins under
// every probing scheme, with Cross-Check off and every 3 iterations. A
// kernel change that claims to be a pure speedup (same labels, same work)
// must leave every fingerprint unchanged; a change that intentionally alters
// the algorithm regenerates the table and says why.
func TestOutputIdentityGolden(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.CSR
	}{
		{"web", gen.Web(gen.DefaultWeb(6000, 4, 7))},
		{"social", func() *graph.CSR { g, _ := gen.Social(gen.DefaultSocial(1200, 50, 7)); return g }()},
	}
	for _, gr := range graphs {
		// Both block shapes must occur: bounded (p1 < BlockDim) and full.
		var half, full int
		for v := 0; v < gr.g.NumVertices(); v++ {
			switch d := gr.g.Degree(graph.Vertex(v)); {
			case d >= 64:
				full++
			case d >= 32:
				half++
			}
		}
		if half == 0 || full == 0 {
			t.Fatalf("%s: %d degree-32..63 and %d degree>=64 vertices; want both", gr.name, half, full)
		}
	}
	want := map[string]string{
		"web/linear/cc0":              "25d3b2a087b8e38d",
		"web/linear/cc3":              "a5242d88f9de3a1b",
		"web/quadratic/cc0":           "93e8f2980c381a04",
		"web/quadratic/cc3":           "c72dd25572b9a5d5",
		"web/double/cc0":              "5e6911d26278c1f5",
		"web/double/cc3":              "afa3f4193f14f226",
		"web/quadratic-double/cc0":    "4a245e8ae536fd0c",
		"web/quadratic-double/cc3":    "137f732cf0062176",
		"web/coalesced/cc0":           "66687b911ba642a8",
		"web/coalesced/cc3":           "19a6e4b56e29883d",
		"social/linear/cc0":           "8ae81473cd2b6cf9",
		"social/linear/cc3":           "88de1220fe3b8b73",
		"social/quadratic/cc0":        "3d5a88e9535b8d57",
		"social/quadratic/cc3":        "9528909f7d07742e",
		"social/double/cc0":           "3d352445b4b99b20",
		"social/double/cc3":           "69a017b377f8986c",
		"social/quadratic-double/cc0": "c3392d6d5f6e0843",
		"social/quadratic-double/cc3": "3c6a87b9a3086458",
		"social/coalesced/cc0":        "7358c94ccb22efdc",
		"social/coalesced/cc3":        "d7591bc094dc60b8",
	}
	probings := []hashtable.Probing{hashtable.Linear, hashtable.Quadratic, hashtable.Double,
		hashtable.QuadraticDouble, hashtable.Coalesced}
	for _, gr := range graphs {
		for _, p := range probings {
			for _, cc := range []int{0, 3} {
				key := fmt.Sprintf("%s/%v/cc%d", gr.name, p, cc)
				if got := goldenRun(t, gr.g, p, cc); got != want[key] {
					t.Errorf("%q: %q, want %q", key, got, want[key])
				}
			}
		}
	}
}
