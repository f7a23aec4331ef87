package httpapi

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nulpa/internal/health"
)

func TestReadyzSplit(t *testing.T) {
	srv := NewServer()
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// The engine registry is populated (the test package imports
	// engine/all), so a fresh server is ready — and alive.
	if code, body := get(t, ts.URL+"/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("readyz = %d %q", code, body)
	}
	if code, body := get(t, ts.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz = %d %q", code, body)
	}

	// An empty registry (simulated — the real one is process-global) fails
	// readiness but not liveness.
	srv.readyCheck = func() bool { return false }
	if code, body := get(t, ts.URL+"/readyz"); code != 503 || !strings.Contains(body, "no detectors") {
		t.Fatalf("readyz with empty registry = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz must stay 200 when not ready")
	}
	srv.readyCheck = nil

	// Drain wins over everything: once shutdown begins, readiness fails for
	// good while liveness keeps answering.
	srv.BeginDrain()
	if code, body := get(t, ts.URL+"/readyz"); code != 503 || body != "draining\n" {
		t.Fatalf("readyz while draining = %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz must stay 200 while draining")
	}
	if !srv.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
}

// submitAndWait posts a job and polls it to a terminal state.
func submitAndWait(t *testing.T, base, spec string) JobStatus {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		_, body := get(t, fmt.Sprintf("%s/jobs/%d", base, st.ID))
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %s", st.ID, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestLiveStreamAndFlightEndpoint(t *testing.T) {
	ts := newTestServer(t)
	st := submitAndWait(t, ts.URL,
		`{"algo":"nulpa","graph":{"gen":"planted","n":400,"deg":8,"seed":3},"workers":2}`)
	if st.State != JobDone {
		t.Fatalf("job = %+v", st)
	}
	if st.Iterations == 0 {
		t.Fatal("job reports zero iterations")
	}

	// The SSE stream must deliver >= 1 frame per iteration. Connecting
	// after the run finished still replays every retained frame (the
	// subscription snapshot), then ends.
	resp, err := http.Get(fmt.Sprintf("%s/debug/live/%d", ts.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("live = %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	var frames int
	var gotEnd bool
	event := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "frame":
				var f health.Frame
				if err := json.Unmarshal([]byte(data), &f); err != nil {
					t.Fatalf("frame payload: %v\n%s", err, data)
				}
				if f.State == "" {
					t.Fatalf("frame %d missing state", f.Iter)
				}
				frames++
			case "end":
				var end JobStatus
				if err := json.Unmarshal([]byte(data), &end); err != nil {
					t.Fatalf("end payload: %v\n%s", err, data)
				}
				if end.State != JobDone {
					t.Fatalf("end state = %s", end.State)
				}
				gotEnd = true
			}
		}
	}
	if !gotEnd {
		t.Fatal("stream ended without an end event")
	}
	if frames < st.Iterations {
		t.Fatalf("streamed %d frames for %d iterations, want >= 1 per iteration", frames, st.Iterations)
	}

	// The flight endpoint serves a fresh capture for a job that finished
	// cleanly (no auto-capture happened).
	code, body := get(t, fmt.Sprintf("%s/jobs/%d/flight", ts.URL, st.ID))
	if code != 200 {
		t.Fatalf("flight = %d %s", code, body)
	}
	b, err := health.DecodeFlight([]byte(strings.TrimSpace(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "request" {
		t.Fatalf("clean job flight reason = %q, want request", b.Reason)
	}
	if len(b.Frames) == 0 || b.Iterations != st.Iterations {
		t.Fatalf("flight frames = %d, iterations = %d (job ran %d)", len(b.Frames), b.Iterations, st.Iterations)
	}
	if b.Trace != st.Trace {
		t.Fatalf("flight trace = %q, job trace = %q", b.Trace, st.Trace)
	}
}

func TestFlightAutoCaptureOnFailure(t *testing.T) {
	ts := newTestServer(t)
	// A nonexistent graph file fails the job before any iteration runs; the
	// auto-capture still produces a valid (frameless) bundle with the fault
	// on its event track.
	st := submitAndWait(t, ts.URL, `{"algo":"nulpa","graph":{"path":"/nonexistent/graph.mtx"}}`)
	if st.State != JobFailed {
		t.Fatalf("job = %+v", st)
	}
	code, body := get(t, fmt.Sprintf("%s/jobs/%d/flight", ts.URL, st.ID))
	if code != 200 {
		t.Fatalf("flight = %d %s", code, body)
	}
	b, err := health.DecodeFlight([]byte(strings.TrimSpace(body)))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.Reason != "fault" {
		t.Fatalf("failed job flight reason = %q, want fault", b.Reason)
	}
	found := false
	for _, e := range b.Events {
		if e.Name == "fault" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fault event missing from auto-captured bundle: %+v", b.Events)
	}
}

func TestLiveStreamNotFound(t *testing.T) {
	ts := newTestServer(t)
	if code, _ := get(t, ts.URL+"/debug/live/999"); code != 404 {
		t.Fatalf("live for missing job = %d", code)
	}
	if code, _ := get(t, ts.URL+"/jobs/999/flight"); code != 404 {
		t.Fatalf("flight for missing job = %d", code)
	}
}

// TestJobLifecycleLedgerBeforeEnd runs jobs one after another and, as soon
// as each job's SSE stream delivers its end event, checks that /debug/vars
// already counts the job: a reader woken by the end of a job must see a job
// ledger that includes it.
func TestJobLifecycleLedgerBeforeEnd(t *testing.T) {
	ts := newTestServer(t)
	// ledger returns the finished-job count summed over states and the
	// job-duration observation count.
	ledger := func() (finished float64, observed float64) {
		_, body := get(t, ts.URL+"/debug/vars")
		var doc struct {
			Finished map[string]float64 `json:"httpapi_jobs_finished_total"`
			Duration struct {
				Count float64 `json:"count"`
			} `json:"httpapi_job_duration_seconds"`
		}
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("/debug/vars: %v", err)
		}
		for _, v := range doc.Finished {
			finished += v
		}
		return finished, doc.Duration.Count
	}
	baseFinished, baseObserved := ledger()
	const jobs = 5
	for k := 1; k <= jobs; k++ {
		spec := fmt.Sprintf(`{"algo":"nulpa","graph":{"gen":"planted","n":300,"deg":8,"seed":%d},"workers":1}`, k)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d %s", resp.StatusCode, body)
		}
		var st JobStatus
		if err := json.Unmarshal([]byte(body), &st); err != nil {
			t.Fatal(err)
		}
		live, err := http.Get(fmt.Sprintf("%s/debug/live/%d", ts.URL, st.ID))
		if err != nil {
			t.Fatal(err)
		}
		gotEnd := false
		sc := bufio.NewScanner(live.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			if sc.Text() == "event: end" {
				gotEnd = true
				break
			}
		}
		live.Body.Close()
		if !gotEnd {
			t.Fatalf("job %d: stream ended without an end event", st.ID)
		}
		finished, observed := ledger()
		if finished < baseFinished+float64(k) || observed < baseObserved+float64(k) {
			t.Fatalf("after job %d's end event: ledger counts %.0f finished, %.0f durations; want >= %d of each",
				k, finished-baseFinished, observed-baseObserved, k)
		}
	}
}
