// Command perfbench is the repository benchmark: it runs one named
// workload end to end, checks its outputs against pinned values and
// independent oracles, and prints its metrics as JSON.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is
// the machine record. With --trace 0 the metrics are the end-to-end
// metrics, measured with no spans recorded. With --trace 1 the run
// measures the workload once untraced and once traced (each for
// --seconds), reports the per-layer metrics from the traced pass and the
// tracing overhead between the two, and writes its spans to
// .bench_build/spans/. The exit status is 0 when every output matched
// and no operation failed, 1 when one did not, and 2 on a usage or
// environment error (in which case no result is printed).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one metric. For per-layer metrics, workload names
// where it is measured and moves the end-to-end metric it should move
// there.
type metricDef struct {
	name, unit, better string
	workload, moves    string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. items_per_s counts each workload's own unit
// of work: configurations (verify-n5), seeded lanes (sweep-conv), engine
// events (ring-100k) or scenarios (soak-mixed).
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mib", unit: "MiB", better: "lower"},
	{name: "items_per_s", unit: "items/s", better: "higher"},
}

// perLayer are the traced run's metrics. Every workload prints all of
// them; a layer the workload does not call reads 0. A time is the self
// time of the layer's spans (span duration minus what child spans cover)
// per fixed unit of work, as its unit says: per lemma verdict, per 1000
// seeded lanes (worker seconds), per simulated second (100 ticks) or per
// 1000 scenarios. runtime.tick_s is the RunUntil calls; the tick
// percentiles cover whole ticks, reads included. A tail is the highest
// percentile with at least ten samples beyond it; the count next to it
// is its sample count.
var perLayer = []metricDef{
	{"check.compile_s", "s", "lower", "verify-n5", "setup_s"},
	{"check.legitset_s", "s/verdict", "lower", "verify-n5", "items_per_s"},
	{"check.deadlock_s", "s/verdict", "lower", "verify-n5", "items_per_s"},
	{"check.closure_s", "s/verdict", "lower", "verify-n5", "items_per_s"},
	{"inclusion.census_s", "s/verdict", "lower", "verify-n5", "items_per_s"},
	{"check.quiet_s", "s/verdict", "lower", "verify-n5", "items_per_s"},
	{"check.convergence_s", "s/verdict", "lower", "verify-n5", "items_per_s"},
	{"check.bookkeeping_mib", "MiB", "lower", "verify-n5", "peak_rss_mib"},
	{"check.edges", "count", "lower", "verify-n5", "none (exact count)"},
	{"check.kahn_layers", "count", "lower", "verify-n5", "none (exact count)"},
	{"bitslice.build_s", "s/1k-seeds", "lower", "sweep-conv", "items_per_s"},
	{"bitslice.run_s", "s/1k-seeds", "lower", "sweep-conv", "items_per_s"},
	{"bitslice.lane_util", "ratio", "higher", "sweep-conv", "items_per_s"},
	{"bitslice.word_steps", "count", "lower", "sweep-conv", "none (exact count)"},
	{"parsweep.idle_frac", "ratio", "lower", "sweep-conv", "items_per_s"},
	{"statemodel.oracle_steps_per_s", "steps/s", "higher", "sweep-conv", "none (untimed oracle runs)"},
	{"runtime.build_s", "s", "lower", "ring-100k", "setup_s"},
	{"runtime.tick_s", "s/sim-s", "lower", "ring-100k", "items_per_s"},
	{"runtime.tick_p50_ms", "ms", "lower", "ring-100k", "items_per_s"},
	{"runtime.tick_tail_ms", "ms", "lower", "ring-100k", "items_per_s"},
	{"runtime.ticks", "count", "higher", "ring-100k", "none (tail sample count)"},
	{"runtime.census_s", "s/sim-s", "lower", "ring-100k", "items_per_s"},
	{"runtime.holders_s", "s/sim-s", "lower", "ring-100k", "items_per_s"},
	{"crosscheck.state_s", "s/1k-scenarios", "lower", "soak-mixed", "items_per_s"},
	{"crosscheck.msgnet_s", "s/1k-scenarios", "lower", "soak-mixed", "items_per_s"},
	{"crosscheck.live_s", "s/1k-scenarios", "lower", "soak-mixed", "items_per_s"},
	{"msgnet.msgs_per_s", "msgs/s", "higher", "soak-mixed", "items_per_s"},
	{"crosscheck.scenario_p50_ms", "ms", "lower", "soak-mixed", "items_per_s"},
	{"crosscheck.scenario_tail_ms", "ms", "lower", "soak-mixed", "items_per_s"},
	{"crosscheck.scenarios", "count", "higher", "soak-mixed", "none (tail sample count)"},
	{"obs.overhead_frac", "ratio", "lower", "soak-mixed", "items_per_s"},
	{"trace.overhead_frac", "ratio", "lower", "all", "none (cost of the spans)"},
}

// workload is one named benchmark input set.
type workload struct {
	name string
	run  func(rc runConfig) (*outcome, error)
}

var workloads = []workload{
	{"verify-n5", runVerify},
	{"sweep-conv", runSweep},
	{"ring-100k", runRing},
	{"soak-mixed", runSoak},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	workers int
	// tr is nil on an untraced run.
	tr  *tracer
	log io.Writer
}

// setupReps is how many times each workload builds its set-up; setup_s
// is the median.
const setupReps = 5

// outcome is a workload's verdict and measurements.
type outcome struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	log               io.Writer
}

func newOutcome(log io.Writer) *outcome {
	return &outcome{correct: true, metrics: make(map[string]float64), log: log}
}

// expect records a pinned or differential check; a mismatch makes the
// run incorrect.
func (o *outcome) expect(ok bool, format string, args ...any) {
	if !ok {
		o.correct = false
		fmt.Fprintf(o.log, "MISMATCH: "+format+"\n", args...)
	}
}

// op counts one operation and whether it failed.
func (o *outcome) op(failed bool, format string, args ...any) {
	o.attempted++
	if failed {
		o.fail(format, args...)
	}
}

// fail counts a failed operation (already counted as attempted) and
// logs the first few.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(o.log, "FAILED: "+format+"\n", args...)
	}
}

// overhead returns the share of throughput lost in the traced pass.
func overhead(untraced, traced float64) float64 {
	if untraced <= 0 {
		return 0
	}
	return 1 - traced/untraced
}

// machine is the record printed with every result.
type machine struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Run        string  `json:"run"`
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	// CalibMops is the speed of a fixed single-threaded integer loop at
	// the start of the run, in millions of iterations per second. Shared
	// hosts drift; this tells a slower host apart from a slower program.
	CalibMops float64 `json:"calib_mops"`
}

// calibSink keeps the calibration loop from being optimized away.
var calibSink uint64

// calibrate times a fixed xorshift loop on one thread.
func calibrate() float64 {
	const iters = 1 << 25
	x := uint64(1)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return iters / time.Since(start).Seconds() / 1e6
}

// cpuModel reads the processor name from /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set (VmHWM). Each run
// executes one workload, so this is that workload's own peak.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if kib, err := strconv.ParseFloat(f[0], 64); err == nil && len(f) == 2 && f[1] == "kB" {
					return kib / 1024
				}
			}
		}
	}
	var ms goruntime.MemStats
	goruntime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// resultJSON renders the result object with the metrics of one mode.
func resultJSON(o *outcome, defs []metricDef) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.name] = value{o.metrics[d.name], d.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.correct, o.attempted, o.failed, metrics})
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload name")
		seed    = fs.Int64("seed", 1, "workload seed: all inputs derive from it")
		seconds = fs.Float64("seconds", 10, "measured seconds per pass")
		trace   = fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
		spanDir = fs.String("spans", ".bench_build/spans", "directory for the traced run's span file")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.name
		}
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}

	// Never more threads than CPUs: every parallel layer gets one worker
	// per CPU.
	if n := goruntime.NumCPU(); goruntime.GOMAXPROCS(0) > n {
		goruntime.GOMAXPROCS(n)
	}
	workers := goruntime.GOMAXPROCS(0)
	m := machine{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		Run:        fmt.Sprintf("s%d-%d", *seed, time.Now().UnixNano()),
		NumCPU:     goruntime.NumCPU(),
		GOMAXPROCS: workers,
		GoVersion:  goruntime.Version(),
		CPUModel:   cpuModel(),
		GOOS:       goruntime.GOOS,
		GOARCH:     goruntime.GOARCH,
		CalibMops:  calibrate(),
	}
	rc := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		workers: workers,
		log:     stderr,
	}
	if m.Trace {
		rc.tr = newTracer(w.name, m.Run)
	}

	o, err := w.run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
		return 2
	}
	defs := endToEnd
	if m.Trace {
		defs = perLayer
		path, err := rc.tr.write(*spanDir, m)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench %s: %v\n", w.name, err)
			return 2
		}
		fmt.Fprintf(stderr, "spans: %s\n", path)
	} else {
		for _, d := range endToEnd {
			if o.metrics[d.name] <= 0 {
				fmt.Fprintf(stderr, "perfbench %s: end-to-end metric %s not measured\n", w.name, d.name)
				return 2
			}
		}
	}
	logMetrics(stderr, o.metrics)
	mline, err := json.Marshal(struct {
		Machine machine `json:"machine"`
	}{m})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	res, err := resultJSON(o, defs)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n%s\n", mline, res)
	if !o.correct || o.failed > 0 {
		return 1
	}
	return 0
}

// logMetrics prints every measured value, sorted by name, to the log.
func logMetrics(w io.Writer, metrics map[string]float64) {
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-32s %.6g\n", k, metrics[k])
	}
}
