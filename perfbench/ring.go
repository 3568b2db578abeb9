package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/crosscheck"
	"ssrmin/internal/runtime"
	"ssrmin/internal/scenario"
)

// The ring-100k workload: the live-tier crosscheck loop on a
// 100,000-node ring, driven here tick by tick. It starts from the
// legitimate configuration with coherent caches, uses the link settings
// of BenchmarkRuntimeEngine and injects no faults.
const (
	ringN       = 100_000
	ringDelay   = 0.01
	ringJitter  = 0.002
	ringRefresh = 0.05
	// ringTicksPerSimSecond normalizes the per-layer times.
	ringTicksPerSimSecond = 1 / ringDelay
)

// ringScenario is the workload as a crosscheck scenario on the live tier.
func ringScenario(n int, seed int64, horizon float64, workers int) (crosscheck.Scenario, error) {
	sc := crosscheck.Scenario{
		Name:        fmt.Sprintf("ring-n%d-s%d", n, seed),
		N:           n,
		Seed:        seed,
		Horizon:     horizon,
		Link:        scenario.Link{Delay: ringDelay, Jitter: ringJitter},
		Refresh:     ringRefresh,
		Engines:     []string{crosscheck.EngineLive},
		LiveWorkers: workers,
	}
	return sc, sc.Validate()
}

// ringDriver runs the live tier's loop: per tick one RunUntil(now+Delay),
// then the tracked census and the primary and secondary holders.
type ringDriver struct {
	sc  crosscheck.Scenario
	eng *runtime.Engine[core.State]

	ticks, observations  int
	minCensus, maxCensus int
	separationObs        int
	maxSeparation        int
}

// newRingDriver builds the engine as the crosscheck live tier does for a
// fault-free scenario and freezes it (the lazy set-up of the first run).
func newRingDriver(sc crosscheck.Scenario, tr *tracer) *ringDriver {
	sp := tr.begin("runtime.build", -1)
	alg := core.New(sc.N, sc.K)
	eng := runtime.NewEngine[core.State](alg, alg.InitialLegitimate(), runtime.Options[core.State]{
		Delay:          seconds(sc.Link.Delay),
		Jitter:         seconds(sc.Link.Jitter),
		LossProb:       sc.Link.Loss,
		Refresh:        seconds(sc.Refresh),
		Seed:           sc.Seed,
		CoherentCaches: !sc.IncoherentCaches,
		Workers:        sc.LiveWorkers,
	})
	eng.SetPrivilegeCallback(core.HasToken, nil)
	eng.TrackedCensus()
	tr.end(sp)
	return &ringDriver{sc: sc, eng: eng, minCensus: -1, maxSeparation: -1}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tick advances one Delay and checks the invariants; it reports whether
// the census left [1,2] or the unique holders were more than one hop
// apart.
func (d *ringDriver) tick(tr *tracer) (failed bool) {
	root := tr.begin("ring.tick", -1)
	defer tr.end(root)
	sp := tr.begin("runtime.tick", root)
	d.eng.RunUntil(d.eng.Now() + d.sc.Link.Delay)
	tr.end(sp)
	sp = tr.begin("runtime.census", root)
	census, _ := d.eng.TrackedCensus()
	tr.end(sp)
	sp = tr.begin("runtime.holders", root)
	prim, secd := d.eng.Holders(core.HasPrimary), d.eng.Holders(core.HasSecondary)
	tr.end(sp)

	d.ticks++
	d.observations++
	if d.minCensus < 0 || census < d.minCensus {
		d.minCensus = census
	}
	if census > d.maxCensus {
		d.maxCensus = census
	}
	failed = census < 1 || census > 2
	if len(prim) == 1 && len(secd) == 1 {
		dist := prim[0] - secd[0]
		if dist < 0 {
			dist = -dist
		}
		if back := d.sc.N - dist; back < dist {
			dist = back
		}
		d.separationObs++
		if dist > d.maxSeparation {
			d.maxSeparation = dist
		}
		failed = failed || dist > 1
	}
	return failed
}

// runHorizon ticks until the scenario's horizon, as the crosscheck loop
// does, and returns the number of failed ticks.
func (d *ringDriver) runHorizon() int {
	failed := 0
	for d.eng.Now() < d.sc.Horizon {
		if d.tick(nil) {
			failed++
		}
	}
	return failed
}

// ringRefSeed, ringRefTicks and ringRefStats pin the counters of the
// 100k ring at the reference seed after a fixed number of ticks.
const (
	ringRefSeed  = 1
	ringRefTicks = 20
)

var ringRefStats = runtime.EngineStats{
	Events: 2_968_401, Sent: 2_604_512, Carried: 2_468_401, Dropped: 3_332_290, Rules: 14,
}

// ringCrossN and ringCrossHorizon size the check that the driver loop is
// the live crosscheck: at this ring size both must agree exactly.
const (
	ringCrossN       = 64
	ringCrossHorizon = 2.0
)

// crossCheckDriver runs the driver and crosscheck.RunWithRes on the live
// tier over the same small scenario and compares their results.
func crossCheckDriver(seed int64, workers int, o *outcome) error {
	sc, err := ringScenario(ringCrossN, seed, ringCrossHorizon, workers)
	if err != nil {
		return err
	}
	d := newRingDriver(sc, nil)
	failed := d.runHorizon()
	rules := d.eng.RuleExecutions()
	d.eng.Stop()
	rep, err := crosscheck.RunWithRes(sc, nil, nil)
	if err != nil {
		return err
	}
	live := rep.Engines[0]
	o.expect(failed == 0 && live.OK(), "n=%d crosscheck: driver failed %d ticks, crosscheck violations %v", sc.N, failed, live.Violations)
	o.expect(rules == live.RuleExecutions && d.observations == live.Observations &&
		d.minCensus == live.MinCensus && d.maxCensus == live.MaxCensus &&
		d.separationObs == live.SeparationObs && d.maxSeparation == live.MaxSeparation,
		"n=%d driver (rules %d, obs %d, census [%d,%d], sep obs %d max %d) differs from crosscheck live tier (rules %d, obs %d, census [%d,%d], sep obs %d max %d)",
		sc.N, rules, d.observations, d.minCensus, d.maxCensus, d.separationObs, d.maxSeparation,
		live.RuleExecutions, live.Observations, live.MinCensus, live.MaxCensus, live.SeparationObs, live.MaxSeparation)
	return nil
}

func runRing(rc runConfig) (*outcome, error) {
	o := newOutcome(rc.log)
	sc, err := ringScenario(ringN, rc.seed, 1e9, rc.workers)
	if err != nil {
		return nil, err
	}

	// Set-up: engine construction and the freeze. The garbage of the
	// repeated set-ups goes back to the OS before measuring, so the peak
	// resident set is one engine's.
	var d *ringDriver
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.eng.Stop()
			d = nil
			debug.FreeOSMemory()
		}
		start := time.Now()
		d = newRingDriver(sc, rc.tr)
		setups = append(setups, time.Since(start).Seconds())
	}
	debug.FreeOSMemory()
	defer func() { d.eng.Stop() }()

	// pass ticks until the budget is spent and returns events per second
	// over the wall time of all ticks, reads included.
	pass := func(tr *tracer) float64 {
		ev0 := d.eng.Stats().Events
		var wall time.Duration
		for start := time.Now(); wall == 0 || time.Since(start) < rc.seconds; {
			t0 := time.Now()
			failed := d.tick(tr)
			wall += time.Since(t0)
			o.op(failed, "tick %d (t=%.2f): census or separation out of bounds", d.ticks, d.eng.Now())
		}
		return float64(d.eng.Stats().Events-ev0) / wall.Seconds()
	}
	rate := pass(nil)
	o.metrics["setup_s"] = median(setups)
	o.metrics["items_per_s"] = rate
	o.metrics["peak_rss_mib"] = peakRSSMiB()

	var tracedRate float64
	if rc.tr != nil {
		ticks0 := d.ticks
		tracedRate = pass(rc.tr)
		spans := rc.tr.snapshot()
		self := selfByName(spans)
		perSimSecond := ringTicksPerSimSecond / float64(d.ticks-ticks0)
		o.metrics["runtime.build_s"] = self["runtime.build"] / setupReps
		o.metrics["runtime.tick_s"] = self["runtime.tick"] * perSimSecond
		o.metrics["runtime.census_s"] = self["runtime.census"] * perSimSecond
		o.metrics["runtime.holders_s"] = self["runtime.holders"] * perSimSecond
		ticks := durations(spans, "ring.tick")
		_, tailMs := tail(ticks)
		o.metrics["runtime.tick_p50_ms"] = median(ticks)
		o.metrics["runtime.tick_tail_ms"] = tailMs
		o.metrics["runtime.ticks"] = float64(len(ticks))
		o.metrics["trace.overhead_frac"] = overhead(rate, tracedRate)
	}
	d.eng.Stop()
	d = nil
	debug.FreeOSMemory()

	// The pinned counters of the reference seed, then the driver against
	// the crosscheck live tier at a small n.
	ref, err := ringScenario(ringN, ringRefSeed, 1e9, rc.workers)
	if err != nil {
		return nil, err
	}
	d = newRingDriver(ref, nil)
	for i := 0; i < ringRefTicks; i++ {
		if d.tick(nil) {
			o.expect(false, "reference tick %d failed", i)
		}
	}
	got := d.eng.Stats()
	o.expect(got == ringRefStats, "reference counters %+v, pinned %+v", got, ringRefStats)
	if err := crossCheckDriver(rc.seed, rc.workers, o); err != nil {
		return nil, err
	}
	return o, nil
}
