package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"ssrmin/internal/check"
	"ssrmin/internal/core"
	"ssrmin/internal/inclusion"
)

// The verify-n5 workload: the full lemma verdict on ssrmin(n=5, K=6)
// through the compiled check.Engine, as `modelcheck -n 5 -k 6` runs it.
// The instance is fixed, so the seed changes nothing and every verdict
// is pinned to the values below.
const (
	verifyN, verifyK = 5, 6
	verifyMaxConfigs = 50_000_000
)

// verifyPins are the outputs every verdict must reproduce exactly.
var verifyPins = struct {
	configs, legit           uint64
	maxEnabled               int
	quiet                    int
	worst, worstBound        int
	edges                    uint64
	kahnLayers, illegitimate uint64
}{
	configs: 7_962_624, legit: 90, maxEnabled: 1,
	quiet: 9, worst: 77, worstBound: 1579,
	edges: 196_273_032, kahnLayers: 77, illegitimate: 7_962_534,
}

// verdict is one pass over the lemmas, with the wall time of each phase.
type verdict struct {
	phases []time.Duration
	stats  check.ConvStats
}

// runVerdict checks every lemma once. Each check is one operation.
func runVerdict(eng *check.Engine[core.State], a *core.Algorithm, o *outcome, tr *tracer) verdict {
	root := tr.begin("verify.verdict", -1)
	defer tr.end(root)
	var v verdict
	phase := func(name string, f func()) {
		sp := tr.begin(name, root)
		start := time.Now()
		f()
		v.phases = append(v.phases, time.Since(start))
		tr.end(sp)
	}
	pins := verifyPins

	var lam *check.IDSet
	phase("check.legitset", func() { lam = eng.LegitSet(a.Legitimate) })
	o.expect(lam.Count() == pins.legit, "|Λ| = %d, pinned %d", lam.Count(), pins.legit)

	phase("check.deadlock", func() {
		cex, ok := eng.CheckNoDeadlock()
		o.op(!ok, "Lemma 4: deadlock at %v", cex)
	})

	phase("check.closure", func() {
		rep := eng.CheckClosure(lam)
		o.op(rep.Counterexample != nil || rep.MaxEnabled != 1,
			"Lemma 1: counterexample %v, max enabled %d", rep.Counterexample, rep.MaxEnabled)
		o.expect(rep.Legitimate == pins.legit && rep.MaxEnabled == pins.maxEnabled,
			"closure |Λ| %d max enabled %d, pinned %d and %d", rep.Legitimate, rep.MaxEnabled, pins.legit, pins.maxEnabled)
	})

	phase("inclusion.census", func() {
		ct := inclusion.CompileCensus(a.AllStates(), verifyN, core.HasPrimary, core.HasSecondary)
		ok := true
		var triples []uint32
		lam.ForEach(func(id uint64) bool {
			triples = eng.Triples(id, triples)
			p, s, priv := ct.Counts(triples)
			ok = p == 1 && s == 1 && priv >= 1 && priv <= 2
			return ok
		})
		o.op(!ok, "Theorem 1: census outside [1,2] in Λ")
	})

	phase("check.quiet", func() {
		steps, from, ok := eng.LongestRestricted(map[int]bool{
			core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
		})
		o.op(!ok || steps > 3*verifyN, "Lemma 5: quiet run %d from %v (finite %v)", steps, from, ok)
		o.expect(steps == pins.quiet, "quiet run %d, pinned %d", steps, pins.quiet)
	})

	phase("check.convergence", func() {
		conv, stats := eng.CheckConvergence(lam)
		bound := a.ConvergenceStepBound()
		o.op(!conv.Converges || conv.WorstSteps > bound, "Lemma 6: converges %v, worst %d > %d", conv.Converges, conv.WorstSteps, bound)
		o.expect(conv.WorstSteps == pins.worst && bound == pins.worstBound && conv.Illegitimate == pins.illegitimate,
			"worst %d ≤ %d over %d illegitimate, pinned %d ≤ %d over %d",
			conv.WorstSteps, bound, conv.Illegitimate, pins.worst, pins.worstBound, pins.illegitimate)
		o.expect(stats.Edges == pins.edges && uint64(stats.Layers) == pins.kahnLayers,
			"%d edges, %d Kahn layers, pinned %d and %d", stats.Edges, stats.Layers, pins.edges, pins.kahnLayers)
		v.stats = stats
	})
	return v
}

func runVerify(rc runConfig) (*outcome, error) {
	o := newOutcome(rc.log)
	a := core.New(verifyN, verifyK)

	// Set-up: checker construction and table compilation.
	var eng *check.Engine[core.State]
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		sp := rc.tr.begin("check.compile", -1)
		start := time.Now()
		e, err := check.New[core.State](a, verifyMaxConfigs).Compile(rc.workers)
		if err != nil {
			return nil, fmt.Errorf("compile: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		rc.tr.end(sp)
		eng = e
	}
	o.expect(eng.NumConfigs() == verifyPins.configs, "|Γ| = %d, pinned %d", eng.NumConfigs(), verifyPins.configs)

	// pass runs whole verdicts until the budget is spent (at least one)
	// and returns the median configurations per second over the summed
	// phases, the verdict count and the last verdict.
	pass := func(tr *tracer) (float64, int, verdict) {
		var rates []float64
		var last verdict
		for start := time.Now(); len(rates) == 0 || time.Since(start) < rc.seconds; {
			last = runVerdict(eng, a, o, tr)
			var sum time.Duration
			for _, d := range last.phases {
				sum += d
			}
			rates = append(rates, float64(eng.NumConfigs())/sum.Seconds())
			goruntime.GC()
		}
		return median(rates), len(rates), last
	}

	rate, _, _ := pass(nil)
	o.metrics["setup_s"] = median(setups)
	o.metrics["items_per_s"] = rate
	o.metrics["peak_rss_mib"] = peakRSSMiB()
	if rc.tr == nil {
		return o, nil
	}

	// Traced pass: verdicts with a span per phase.
	tracedRate, verdicts, v := pass(rc.tr)
	self := selfByName(rc.tr.snapshot())
	o.metrics["check.compile_s"] = self["check.compile"] / setupReps
	for _, name := range []string{"check.legitset", "check.deadlock", "check.closure",
		"inclusion.census", "check.quiet", "check.convergence"} {
		o.metrics[name+"_s"] = self[name] / float64(verdicts)
	}
	o.metrics["check.bookkeeping_mib"] = float64(v.stats.BookkeepingBytes) / (1 << 20)
	o.metrics["check.edges"] = float64(v.stats.Edges)
	o.metrics["check.kahn_layers"] = float64(v.stats.Layers)
	o.metrics["trace.overhead_frac"] = overhead(rate, tracedRate)
	return o, nil
}
