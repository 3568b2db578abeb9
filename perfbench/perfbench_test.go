package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"ssrmin/internal/crosscheck"
	"ssrmin/internal/scenario"
)

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	spans := []span{
		{name: "root", start: 0, end: 100, parent: -1},
		// Two overlapping children (parallel workers) cover [10,50).
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 20, end: 50, parent: 0},
		// A disjoint child covers [60,70); its own child covers [62,65).
		{name: "c", start: 60, end: 70, parent: 0},
		{name: "d", start: 62, end: 65, parent: 3},
		// A child running past its parent only counts inside it.
		{name: "root2", start: 200, end: 210, parent: -1},
		{name: "e", start: 205, end: 220, parent: 5},
		// An unclosed span counts as zero.
		{name: "open", start: 300, end: -1, parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30, 30, 10 - 3, 3, 10 - 5, 15, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if byName["root"] != 50e-9 || byName["c"] != 7e-9 {
		t.Fatalf("selfByName = %v", byName)
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1)
	tr.end(id)
	if id != -1 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded a span")
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer("w", "run")
	root := tr.begin("root", -1)
	child := tr.begin("child", root)
	tr.end(child)
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 || spans[1].parent != root || spans[0].end < spans[1].end {
		t.Fatalf("spans = %+v", spans)
	}
	path, err := tr.write(t.TempDir(), map[string]string{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 3 {
		t.Fatalf("span file has %d lines, want header + 2 spans", lines)
	}
}

func TestTailHasTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v := tail(xs); pct != 95 || v != 190 {
		t.Fatalf("tail(200) = p%v %v, want p95 190", pct, v)
	}
	if pct, v := tail(xs[:25]); pct != 50 || v != 13 {
		t.Fatalf("tail(25) = p%v %v, want p50 13", pct, v)
	}
	if pct, v := tail(xs[:5]); pct != 100 || v != 5 {
		t.Fatalf("tail(5) = p%v %v, want the maximum", pct, v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestSweepDigestsAreDeterministicAndPinned(t *testing.T) {
	cells := sweepCells()
	one := cellDigests(cells, runRound(cells, sweepRefSeed, 0, 1, nil))
	two := cellDigests(cells, runRound(cells, sweepRefSeed, 0, 2, nil))
	if !reflect.DeepEqual(one, two) || !reflect.DeepEqual(one, sweepRefDigests) {
		t.Fatalf("reference digests: 1 worker %x, 2 workers %x, pinned %x", one, two, sweepRefDigests)
	}
	other := cellDigests(cells, runRound(cells, sweepRefSeed+1, 0, 2, nil))
	if reflect.DeepEqual(one, other) {
		t.Fatal("another workload seed gave the same digests")
	}
}

func TestSoakGeneratorDrawsValidScenarios(t *testing.T) {
	const count = 1000
	a, b, c := newSoakGen(7), newSoakGen(7), newSoakGen(8)
	same, churn := 0, 0
	for i := 0; i < count; i++ {
		x, y, z := a.at(i), b.at(i), c.at(i)
		if !reflect.DeepEqual(x, y) {
			t.Fatalf("scenario %d differs under one seed", i)
		}
		if reflect.DeepEqual(x, z) {
			same++
		}
		if x.N < 4 || x.N > 12 || x.LiveWorkers != 1 {
			t.Fatalf("scenario %d: n=%d live workers %d", i, x.N, x.LiveWorkers)
		}
		for _, e := range x.Engines {
			if e == crosscheck.EngineLive && (x.Link.Dup != 0 || x.Link.Corrupt != 0 || x.Link.Loss != 0) {
				t.Fatalf("scenario %d runs the live tier with dup/corrupt/loss", i)
			}
		}
		if x.Link.Loss != 0 && (len(x.Faults) < 3 || x.Faults[0] != (scenario.Fault{At: 0, Type: "loss-off"})) {
			t.Fatalf("scenario %d: loss outside an episode: %+v", i, x.Faults)
		}
		for _, f := range x.Faults {
			if f.IsChurn() {
				churn++
			}
		}
		if err := x.Validate(); err != nil {
			t.Fatalf("scenario %d: %v", i, err)
		}
	}
	if same != 0 {
		t.Fatalf("%d scenarios repeat across seeds", same)
	}
	if churn == 0 {
		t.Fatal("no churn drawn")
	}
}

func TestSoakDigestsAreDeterministicAndPinned(t *testing.T) {
	run := func() (soakDigests, []uint64) {
		g, res := newSoakGen(soakRefSeed), crosscheck.NewResources()
		dg := newSoakDigests()
		var msgs int64
		var per []uint64
		for i := 0; i < soakRefCount; i++ {
			h, failed, detail := runScenario(g.at(i), res, nil, nil, &dg, &msgs)
			if failed {
				t.Fatalf("scenario %d: %s", i, detail)
			}
			per = append(per, h)
		}
		return dg, per
	}
	d1, p1 := run()
	d2, p2 := run()
	if d1 != d2 || !reflect.DeepEqual(p1, p2) {
		t.Fatal("digests differ between identical runs")
	}
	for i, d := range d1 {
		if d.h != soakRefDigests[i] {
			t.Errorf("%s digest %#x, pinned %#x", soakTiers[i], d.h, soakRefDigests[i])
		}
	}
}

func TestRingDriverIsTheLiveCrosscheck(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for seed := int64(1); seed <= 3; seed++ {
			o := newOutcome(io.Discard)
			if err := crossCheckDriver(seed, workers, o); err != nil {
				t.Fatal(err)
			}
			if !o.correct {
				t.Fatalf("seed %d, %d workers: driver differs from the crosscheck live tier", seed, workers)
			}
		}
	}
}

func TestRingReferenceCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node engine")
	}
	sc, err := ringScenario(ringN, ringRefSeed, 1e9, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := newRingDriver(sc, nil)
	defer d.eng.Stop()
	for i := 0; i < ringRefTicks; i++ {
		if d.tick(nil) {
			t.Fatalf("tick %d failed", i)
		}
	}
	if got := d.eng.Stats(); got != ringRefStats {
		t.Fatalf("one worker: counters %+v, pinned %+v", got, ringRefStats)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d here", kind, len(got), len(want))
		}
		for i, m := range got {
			if w := want[i]; m.Name != w.name || m.Unit != w.unit || m.Better != w.better {
				t.Errorf("%s %d: %+v vs %+v", kind, i, m, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestResultJSONHasEveryMetric(t *testing.T) {
	o := newOutcome(io.Discard)
	o.attempted = 3
	o.metrics["setup_s"] = 1.5
	b, err := resultJSON(o, perLayer)
	if err != nil {
		t.Fatal(err)
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal(b, &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("result keys: %v", res)
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(perLayer) {
		t.Fatalf("%d metrics, want %d", len(metrics), len(perLayer))
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep-conv", "--trace", "2"},
		{"--workload", "sweep-conv", "--seconds", "0"},
	} {
		var out strings.Builder
		if code := run(args, &out, io.Discard); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}
