// Command perfbench is the repository benchmark: it times whole ν-LPA
// detections and served jobs through the public APIs on four seeded
// workloads, checks every result, and prints one JSON line of metrics.
//
//	perfbench --workload web|road|social|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics from an untraced pass;
// with --trace 1 it also runs a traced pass and reports the per-layer split
// instead. See README.md for every metric and the run.sh wrapper that builds
// it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

const (
	// defaultSeed is the workload seed when --seed is not given; README.md
	// also names a held-out seed.
	defaultSeed = 1
	// serverStarts is how often the serve workload starts its server;
	// setup_s is the median.
	serverStarts = 15
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the user-visible metrics of the untraced pass. Every workload
// reports each of them; README.md says what an operation is per workload.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
	{"edges_per_s", "arcs/s"},
	{"modularity", "Q"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
}

// perLayer are the metrics of the traced pass, named after the module they
// split out. A layer a workload does not run reports 0 (see README.md).
var perLayer = []metricDef{
	{"gen.build_ms", "ms"},
	{"nulpa.setup_ms", "ms"},
	{"engine.detect_ms", "ms"},
	{"engine.loop_ms", "ms"},
	{"engine.iterations", "count"},
	{"engine.host_ms", "ms"},
	{"engine.result_ms", "ms"},
	{"engine.residual_ms", "ms"},
	{"simt.thread_kernel_ms", "ms"},
	{"simt.block_kernel_ms", "ms"},
	{"simt.launches", "count"},
	{"simt.thread.sm_idle_frac", "fraction"},
	{"simt.block.sm_idle_frac", "fraction"},
	{"simt.lane_yield", "fraction"},
	{"simt.cas_retries", "count"},
	{"hashtable.probes_per_accumulate", "ratio"},
	{"hashtable.collisions", "count"},
	{"hashtable.fallbacks", "count"},
	{"work.edge_visits", "count"},
	{"work.label_flips", "count"},
	{"work.active_vertices", "count"},
	{"work.frontier_occupancy", "fraction"},
	{"work.flips_per_active", "ratio"},
	{"quality.communities", "count"},
	{"sched.cache_hits", "count"},
	{"sched.coalesced", "count"},
	{"sched.shed", "count"},
	{"sched.service_ewma_ms", "ms"},
	{"httpapi.submit_ms_p50", "ms"},
	{"httpapi.status_ms_p50", "ms"},
	{"httpapi.overhead_ms_p50", "ms"},
	{"ref.flpa_ms_p50", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration // length of the measured passes together
	trace   bool
	// tiny shrinks every input so the benchmark's own tests run in seconds.
	tiny bool
	// spans is the traced pass's span file; "" keeps spans in memory only.
	spans string
}

// warmup is the untimed closed loop run before each measured pass.
func (c config) warmup() time.Duration {
	if c.tiny {
		return 0
	}
	return 1500 * time.Millisecond
}

// passes returns the lengths of the untraced and traced passes: the whole
// run untraced, or half each when tracing (the traced pass needs the
// untraced median for trace.overhead_frac).
func (c config) passes() (untraced, traced time.Duration) {
	if !c.trace {
		return c.seconds, 0
	}
	return c.seconds / 2, c.seconds / 2
}

// workload is one named input set and how to run it.
type workload struct {
	why   string
	floor float64 // per-operation modularity floor
	run   func(cfg config, floor float64) (*outcome, error)
}

var workloads = map[string]workload{
	"web": {
		why:   "webbase-2001 stand-in, 60k vertices: both kernels run and setup plus result build are the largest share",
		floor: 0.55,
		run:   func(cfg config, floor float64) (*outcome, error) { return runGraph(cfg, webGraphs, floor) },
	},
	"road": {
		why:   "asia_osm stand-in, 140k vertices of degree <= 6: thread kernel only, 11-12 iterations of per-iteration cost",
		floor: 0.75,
		run:   func(cfg config, floor float64) (*outcome, error) { return runGraph(cfg, roadGraphs, floor) },
	},
	"social": {
		why:   "com-Orkut stand-in, average degree 42: block kernel hashtable atomics dominate",
		floor: 0.10,
		run:   func(cfg config, floor float64) (*outcome, error) { return runGraph(cfg, socialGraphs, floor) },
	},
	"serve": {
		why:   "two closed-loop HTTP clients: httpapi, sched admission and result cache, per-job graph build, two detections at once",
		floor: 0.55,
		run:   runServe,
	},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome collects one run's operation counts and metric values.
type outcome struct {
	attempted, failed int
	errs              []string
	values            map[string]float64
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

// record counts one checked operation; a failure is kept, never dropped.
func (o *outcome) record(err error) {
	o.attempted++
	if err != nil {
		o.failed++
		if len(o.errs) < 5 {
			o.errs = append(o.errs, err.Error())
		}
	}
}

func (o *outcome) set(name string, v float64) { o.values[name] = v }

// report renders the outcome with the metrics of the chosen pass. Every
// end-to-end metric must have been set; per-layer metrics a workload does
// not exercise default to 0.
func (o *outcome) report(trace bool) (report, error) {
	r := report{Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	r.Correct = o.failed == 0 && o.attempted > 0
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := o.values[d.name]
		if !ok && !trace {
			return r, fmt.Errorf("metric %s was not measured", d.name)
		}
		r.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return r, nil
}

// environment is what every report records about the process that made it.
type environment struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOGC       string `json:"gogc"`
	GoVersion  string `json:"goVersion"`
	GitSHA     string `json:"gitSHA"`
	Logging    string `json:"logging"`
}

const loggingSetup = "slog text handler on stderr at level WARN (request and job INFO lines dropped)"

func currentEnv(name string, cfg config) environment {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	sha := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				sha = s.Value
			}
		}
	}
	return environment{
		Workload: name, Seed: cfg.seed, Trace: cfg.trace,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: gogc, GoVersion: runtime.Version(), GitSHA: sha, Logging: loggingSetup,
	}
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs one workload and prints the environment line and
// then the report line to stdout. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := fs.Int64("seed", defaultSeed, "workload seed (inputs are generated from it)")
	seconds := fs.Float64("seconds", 10, "length of the measured passes, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spans := fs.String("spans", "", "span file of the traced pass (default .bench_build/spans/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload in %v, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	slog.SetDefault(slog.New(slog.NewTextHandler(stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	cfg := config{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *traceFlag == 1,
		spans:   *spans,
	}
	if cfg.trace && cfg.spans == "" {
		cfg.spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
	}
	return emit(*name, w, cfg, stdout, stderr)
}

// emit runs w under cfg and prints its environment and report lines.
func emit(name string, w workload, cfg config, stdout, stderr io.Writer) int {
	env, _ := json.Marshal(currentEnv(name, cfg)) // strings and numbers only: never fails
	fmt.Fprintf(stdout, "env %s\n", env)
	out, err := w.run(cfg, w.floor)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	for _, e := range out.errs {
		fmt.Fprintf(stderr, "perfbench: %s: failed operation: %s\n", name, e)
	}
	rep, err := out.report(cfg.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
