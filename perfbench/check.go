package main

import (
	"fmt"

	"nulpa/internal/engine"
	"nulpa/internal/graph"
	"nulpa/internal/httpapi"
	"nulpa/internal/quality"
)

// checkPartition validates one in-process detection and returns its exact
// modularity: one label per vertex, every label below Communities,
// Communities equal to the number of distinct labels, and modularity at or
// above floor.
func checkPartition(g *graph.CSR, res *engine.Result, floor float64) (float64, error) {
	if res == nil {
		return 0, fmt.Errorf("nil result")
	}
	n := g.NumVertices()
	if len(res.Labels) != n {
		return 0, fmt.Errorf("%d labels for %d vertices", len(res.Labels), n)
	}
	seen := make([]bool, res.Communities)
	distinct := 0
	for v, c := range res.Labels {
		if int(c) >= res.Communities {
			return 0, fmt.Errorf("vertex %d has label %d, want < %d communities", v, c, res.Communities)
		}
		if !seen[c] {
			seen[c] = true
			distinct++
		}
	}
	if distinct != res.Communities {
		return 0, fmt.Errorf("%d distinct labels, result claims %d communities", distinct, res.Communities)
	}
	q := quality.Modularity(g, res.Labels)
	if q < floor {
		return q, fmt.Errorf("modularity %.4f below floor %.4f", q, floor)
	}
	return q, nil
}

// checkJob validates one served job: every HTTP exchange returned 2xx, the
// final state is done, and the reported modularity is at or above floor.
func checkJob(codes []int, st httpapi.JobStatus, floor float64) error {
	for _, c := range codes {
		if c < 200 || c > 299 {
			return fmt.Errorf("job %d: HTTP status %d", st.ID, c)
		}
	}
	if st.State != httpapi.JobDone {
		return fmt.Errorf("job %d: state %q (error %q), want done", st.ID, st.State, st.Error)
	}
	if st.Communities <= 0 {
		return fmt.Errorf("job %d: %d communities", st.ID, st.Communities)
	}
	if st.Modularity < floor {
		return fmt.Errorf("job %d: modularity %.4f below floor %.4f", st.ID, st.Modularity, floor)
	}
	return nil
}
