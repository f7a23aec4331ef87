package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"nulpa/internal/engine"
	"nulpa/internal/gen"
	"nulpa/internal/httpapi"
)

// runTiny runs workload name on tiny inputs and returns its report.
func runTiny(t *testing.T, name string, trace bool) report {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cfg := config{seed: 3, seconds: 400 * time.Millisecond, trace: trace, tiny: true}
	if code := emit(name, workloads[name], cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%t: exit %d, stderr:\n%s", name, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "env {") {
		t.Fatalf("%s: want an env line and a report line, got:\n%s", name, stdout.String())
	}
	var rep report
	dec := json.NewDecoder(strings.NewReader(lines[1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("%s: report line: %v\n%s", name, err, lines[1])
	}
	if !rep.Correct || rep.Failed != 0 || rep.Attempted < 3 {
		t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d, stderr:\n%s",
			name, trace, rep.Correct, rep.Attempted, rep.Failed, stderr.String())
	}
	return rep
}

// TestWorkloadsTiny runs every workload on tiny inputs in both modes and
// checks that each prints exactly its mode's metrics with their units.
func TestWorkloadsTiny(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			rep := runTiny(t, name, trace)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
			if !trace {
				continue
			}
			switch name {
			case "road":
				if v := rep.Metrics["simt.block_kernel_ms"].Value; v != 0 {
					t.Errorf("road: block kernel ran for %v ms", v)
				}
			case "serve":
				if v := rep.Metrics["sched.cache_hits"].Value; v <= 0 {
					t.Errorf("serve: %v cache hits, want > 0", v)
				}
			default:
				if v := rep.Metrics["engine.loop_ms"].Value; v <= 0 {
					t.Errorf("%s: loop_ms %v, want > 0", name, v)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json's metric and workload lists
// in step with the tables the program reports from.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s, program %s/%s", kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, program has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if p, ok := workloads[w.Name]; !ok || p.why != w.Why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", w.Name, w.Why, p.why)
		}
	}
}

func TestCheckPartitionRejects(t *testing.T) {
	g := gen.Cycle(6)
	good := engine.NewResult([]uint32{0, 0, 0, 1, 1, 1})
	if _, err := checkPartition(g, good, 0.1); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	for name, res := range map[string]*engine.Result{
		"wrong length":       {Labels: []uint32{0, 0, 0, 1, 1}, Communities: 2},
		"label out of range": {Labels: []uint32{0, 0, 0, 1, 1, 2}, Communities: 2},
		"community count":    {Labels: []uint32{0, 0, 0, 0, 0, 0}, Communities: 2},
		"nil":                nil,
	} {
		if _, err := checkPartition(g, res, 0); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := checkPartition(g, good, 0.9); err == nil {
		t.Error("modularity below floor accepted")
	}
}

func TestCheckJobRejects(t *testing.T) {
	done := httpapi.JobStatus{ID: 1, State: httpapi.JobDone, Communities: 3, Modularity: 0.7}
	if err := checkJob([]int{202, 200, 200}, done, 0.5); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	for _, state := range []httpapi.JobState{httpapi.JobFailed, httpapi.JobCanceled, httpapi.JobRunning} {
		st := done
		st.State = state
		if err := checkJob(nil, st, 0); err == nil {
			t.Errorf("state %s accepted", state)
		}
	}
	if err := checkJob([]int{202, 429}, done, 0); err == nil {
		t.Error("HTTP 429 accepted")
	}
	if err := checkJob(nil, done, 0.8); err == nil {
		t.Error("modularity below floor accepted")
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "web", "--trace", "2"},
		{"--workload", "web", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}
