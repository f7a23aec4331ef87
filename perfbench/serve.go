package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"nulpa/internal/httpapi"
	"nulpa/internal/simt"
)

const (
	// serveClients is the number of closed-loop clients: one per core of
	// the 2-core reference machine.
	serveClients = 2
	// repeatEvery makes every repeatEvery-th job repeat an earlier spec,
	// so it is answered from the scheduler's result cache.
	repeatEvery = 5
)

// liveServer is an httpapi.Server listening on loopback.
type liveServer struct {
	srv  *httpapi.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer constructs a server, binds a loopback listener, and returns
// once GET /readyz answers 200 — the serve workload's setup.
func startServer(client *http.Client) (*liveServer, error) {
	srv := httpapi.NewServer()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{
		srv:  srv,
		hs:   httpapi.NewHTTPServer(ln.Addr().String(), srv.Handler()),
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { ls.done <- ls.hs.Serve(ln) }()
	resp, err := client.Get(ls.url + "/readyz")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		ls.close()
		return nil, err
	}
	return ls, nil
}

// close stops the listener and every connection, waits for Serve to
// return, and stops the scheduler pool.
func (s *liveServer) close() {
	s.hs.Close()
	<-s.done
	s.srv.Close()
}

// specStream hands out the job sequence generated from the seed: nulpa on
// web and road graphs alternating, each with a fresh generator seed, except
// that every repeatEvery-th job repeats a spec issued 4–11 jobs earlier.
// With two clients at most two jobs are in flight, so the repeated spec has
// finished and the repeat is a result-cache hit.
type specStream struct {
	mu     sync.Mutex
	rng    *rand.Rand
	n      int
	issued []httpapi.JobSpec
	fresh  int
}

func newSpecStream(seed int64, n int) *specStream {
	return &specStream{rng: rand.New(rand.NewSource(seed)), n: n}
}

func (s *specStream) next() httpapi.JobSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := len(s.issued)
	var spec httpapi.JobSpec
	if i%repeatEvery == repeatEvery-1 {
		j := i - 4 - s.rng.Intn(8)
		if j < 0 {
			j = 0
		}
		spec = s.issued[j]
	} else {
		g := httpapi.GraphSpec{Gen: "web", N: s.n, Deg: 2, Seed: s.rng.Int63n(1<<40) + 1}
		if s.fresh%2 == 1 {
			g = httpapi.GraphSpec{Gen: "road", N: s.n, Seed: s.rng.Int63n(1<<40) + 1}
		}
		s.fresh++
		spec = httpapi.JobSpec{Algo: "nulpa", Graph: g}
	}
	s.issued = append(s.issued, spec)
	return spec
}

// jobSample is one served job as a client saw it.
type jobSample struct {
	spec    httpapi.JobSpec
	latency time.Duration // POST /jobs until the terminal status is read
	submit  time.Duration // POST /jobs round trip
	status  time.Duration // final GET /jobs/{id} round trip
	st      httpapi.JobStatus
	err     error
}

// doJob submits spec, waits on the job's live stream until it ends, and
// reads the final status.
func doJob(client *http.Client, url string, spec httpapi.JobSpec, sp *spanLog, op int) jobSample {
	s := jobSample{spec: spec}
	root := sp.begin(op, 0, "job")
	defer sp.end(root)
	body, _ := json.Marshal(spec) // a JobSpec always marshals
	var codes []int
	t0 := time.Now()
	id := sp.begin(op, root, "submit")
	code, err := call(client, http.MethodPost, url+"/jobs", body, &s.st)
	sp.end(id)
	s.submit = time.Since(t0)
	codes = append(codes, code)
	if err != nil {
		s.err = err
		return s
	}
	id = sp.begin(op, root, "wait")
	code, err = waitJob(client, fmt.Sprintf("%s/debug/live/%d", url, s.st.ID))
	sp.end(id)
	codes = append(codes, code)
	if err != nil {
		s.err = err
		return s
	}
	t1 := time.Now()
	id = sp.begin(op, root, "status")
	code, err = call(client, http.MethodGet, fmt.Sprintf("%s/jobs/%d", url, s.st.ID), nil, &s.st)
	sp.end(id)
	s.status = time.Since(t1)
	s.latency = time.Since(t0)
	codes = append(codes, code)
	if err != nil {
		s.err = err
		return s
	}
	s.err = checkJob(codes, s.st, 0)
	return s
}

// call sends one request and decodes a JSON response into out.
func call(client *http.Client, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, fmt.Errorf("%s %s: %w", method, url, err)
	}
	return resp.StatusCode, nil
}

// waitJob reads the job's server-sent event stream until its end event: the
// job is terminal then. A lagged stream (the client fell behind) is not an
// error; the caller reads the final status either way.
func waitJob(client *http.Client, url string) (int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		if line := sc.Text(); line == "event: end" || line == "event: lagged" {
			return resp.StatusCode, nil
		}
	}
	if err := sc.Err(); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, errors.New("live stream closed without an end event")
}

// servePass runs the closed-loop clients until d has elapsed (and at least
// minJobs jobs were issued), returning every job in completion order.
func servePass(client *http.Client, url string, specs *specStream, d time.Duration, minJobs int, sp *spanLog) []jobSample {
	var mu sync.Mutex
	var jobs []jobSample
	start := time.Now()
	issued := 0
	more := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if issued >= minJobs && time.Since(start) >= d {
			return 0, false
		}
		issued++
		return issued, true
	}
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				op, ok := more()
				if !ok {
					return
				}
				s := doJob(client, url, specs.next(), sp, op)
				mu.Lock()
				jobs = append(jobs, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs
}

// runServe runs the serve workload: setup, warm-up, the untraced pass, and
// with cfg.trace the traced pass.
func runServe(cfg config, floor float64) (*outcome, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	setups := make([]float64, serverStarts)
	var ls *liveServer
	for i := range setups {
		if ls != nil {
			ls.close()
		}
		t0 := time.Now()
		var err error
		if ls, err = startServer(client); err != nil {
			return nil, fmt.Errorf("start server: %w", err)
		}
		setups[i] = time.Since(t0).Seconds()
	}
	defer ls.close()

	out := newOutcome()
	specs := newSpecStream(cfg.seed, pick(cfg.tiny, 20000, 1000))
	check := func(jobs []jobSample) {
		for _, j := range jobs {
			err := j.err
			if err == nil {
				err = checkJob(nil, j.st, floor)
			}
			out.record(err)
		}
	}
	untracedLen, tracedLen := cfg.passes()
	check(servePass(client, ls.url, specs, cfg.warmup(), 2, nil))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	jobs := servePass(client, ls.url, specs, untracedLen, 4, nil)
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	check(jobs)

	// Arcs per job come from a sample of the pass's specs, built after it.
	builds, arcsOf, err := buildSample(jobs)
	if err != nil {
		return nil, err
	}
	var lat, qs []float64
	var done, arcs float64
	for _, j := range jobs {
		lat = append(lat, ms(j.latency))
		if j.err == nil && j.st.State == httpapi.JobDone {
			done++
			arcs += arcsOf[j.spec.Graph.Gen]
			qs = append(qs, j.st.Modularity)
		}
	}
	out.set("op_ms_p50", median(lat))
	out.set("op_ms_p90", quantile(lat, 0.9))
	out.set("ops_per_s", done/wall)
	out.set("edges_per_s", arcs/wall)
	// The mix is bimodal (web Q ≈ 0.65, road Q ≈ 0.86), so its median
	// would jump between the modes; the mean moves smoothly.
	out.set("modularity", ratio(sum(qs), float64(len(qs))))
	out.set("alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(jobs))/1e6)
	out.set("setup_s", median(setups))
	if !cfg.trace {
		return out, nil
	}

	check(servePass(client, ls.url, specs, cfg.warmup()/3, 2, nil))
	sp := newSpanLog()
	st0 := ls.srv.SchedulerStats()
	cas0 := simt.ContentionSnapshot()
	traced := servePass(client, ls.url, specs, tracedLen, 4, sp)
	cas := simt.ContentionSnapshot().Sub(cas0).Total()
	st1 := ls.srv.SchedulerStats()
	check(traced)

	var tlat, submit, status, overhead, comms []float64
	var executed float64
	for _, j := range traced {
		tlat = append(tlat, ms(j.latency))
		submit = append(submit, ms(j.submit))
		status = append(status, ms(j.status))
		if j.err != nil {
			continue
		}
		comms = append(comms, float64(j.st.Communities))
		if !j.st.CacheHit && !j.st.Coalesced {
			executed++
			overhead = append(overhead, ms(j.latency)-j.st.DurationMS)
		}
	}
	var shed int64
	for reason, n := range st1.Shed {
		shed += n - st0.Shed[reason]
	}
	tb, _, err := buildSample(traced)
	if err != nil {
		return nil, err
	}
	builds = append(builds, tb...)
	out.set("gen.build_ms", median(builds))
	out.set("simt.cas_retries", ratio(float64(cas), executed))
	out.set("quality.communities", median(comms))
	out.set("sched.cache_hits", float64(st1.CacheHits-st0.CacheHits))
	out.set("sched.coalesced", float64(st1.Coalesced-st0.Coalesced))
	out.set("sched.shed", float64(shed))
	out.set("sched.service_ewma_ms", ms(st1.ServiceEWMA))
	out.set("httpapi.submit_ms_p50", median(submit))
	out.set("httpapi.status_ms_p50", median(status))
	out.set("httpapi.overhead_ms_p50", median(overhead))
	out.set("trace.overhead_frac", ratio(median(tlat), median(lat))-1)
	if cfg.spans != "" {
		if err := sp.write(cfg.spans); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// buildSample times GraphSpec.Build outside the server on the first three
// specs of each generator among jobs, returning the build times in ms and
// the mean arcs per generator.
func buildSample(jobs []jobSample) ([]float64, map[string]float64, error) {
	var times []float64
	total := map[string]float64{}
	count := map[string]float64{}
	for _, j := range jobs {
		g := j.spec.Graph
		if count[g.Gen] >= 3 {
			continue
		}
		t0 := time.Now()
		csr, err := g.Build()
		if err != nil {
			return nil, nil, fmt.Errorf("build %s: %w", g, err)
		}
		times = append(times, ms(time.Since(t0)))
		total[g.Gen] += float64(csr.NumArcs())
		count[g.Gen]++
	}
	for gen := range total {
		total[gen] /= count[gen]
	}
	return times, total, nil
}
