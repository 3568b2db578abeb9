package main

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"ssrmin/internal/crosscheck"
	"ssrmin/internal/obs"
	"ssrmin/internal/scenario"
)

// The soak-mixed workload: a seeded stream of small crosscheck scenarios
// run one after another by a single caller, each tier as its own
// crosscheck.RunWithRes call on one reused crosscheck.Resources.

const (
	soakHorizon = 20.0
	soakDelay   = 0.01
	// soakPool is how many scenarios set-up generates; a pass that runs
	// past them draws more on demand.
	soakPool = 1 << 10
	// faultWindow is the share of the horizon faults are placed in, so
	// every fault leaves settle room (as in the mutation search).
	faultWindow = 0.6
)

var soakDaemons = []string{"central-random", "distributed", "synchronous"}

// soakGen draws the scenario stream of one workload seed.
type soakGen struct {
	rng  *rand.Rand
	scen []crosscheck.Scenario
}

func newSoakGen(seed int64) *soakGen {
	return &soakGen{rng: rand.New(rand.NewSource(seed))}
}

// at returns scenario i of the stream, drawing up to it as needed.
func (g *soakGen) at(i int) crosscheck.Scenario {
	for len(g.scen) <= i {
		g.scen = append(g.scen, g.draw(len(g.scen)))
	}
	return g.scen[i]
}

// draw returns a scenario that Scenario.Validate accepts: random
// starts, incoherent caches, and up to three faults among state bursts,
// cache corruption, paired cut/heal and join/leave/splice churn with a
// realizable plan. The ring size (4–12) and whether the live tier runs
// cycle with the index, so every stretch of the stream has the same mix
// of the costliest traits whatever the seed. Scenarios without the live
// tier also draw duplication, corruption and loss, which the live tier
// does not execute. Loss comes as an episode (loss-off at 0, then a
// loss-on/loss-off pair like cut/heal) so that, as with corruption, the
// census is only required to hold once the episode has settled: under
// unbroken loss a stale neighbor cache can hand the token over early and
// leave the census at 0 long after the last fault, on both
// message-passing tiers.
func (g *soakGen) draw(i int) crosscheck.Scenario {
	r := g.rng
	n := 4 + i%9
	sc := crosscheck.Scenario{
		Name:             fmt.Sprintf("soak-%d", i),
		N:                n,
		Seed:             1 + r.Int63n(1<<30),
		Horizon:          soakHorizon,
		Daemon:           soakDaemons[r.Intn(len(soakDaemons))],
		Link:             scenario.Link{Delay: soakDelay, Jitter: r.Float64() * soakDelay / 2},
		RandomStart:      r.Intn(2) == 0,
		IncoherentCaches: r.Intn(2) == 0,
		LiveWorkers:      1,
		Engines:          []string{crosscheck.EngineState, crosscheck.EngineMsgnet},
	}
	settle := sc.Horizon / 2
	if i%3 != 2 {
		sc.Engines = append(sc.Engines, crosscheck.EngineLive)
	} else {
		sc.Link.Dup = r.Float64() * 0.3
		sc.Link.Corrupt = r.Float64() * 0.05
		if r.Intn(2) == 0 {
			sc.Link.Loss = r.Float64() * 0.2
			on := r.Float64() * sc.Horizon * faultWindow
			sc.Faults = append(sc.Faults,
				scenario.Fault{At: 0, Type: "loss-off"},
				scenario.Fault{At: on, Type: "loss-on"},
				scenario.Fault{At: on + r.Float64()*settle*0.8, Type: "loss-off"})
		}
	}
	maxSize := n
	for f := r.Intn(4); f > 0; f-- {
		at := r.Float64() * sc.Horizon * faultWindow
		var add []scenario.Fault
		switch r.Intn(6) {
		case 0:
			add = []scenario.Fault{{At: at, Type: "states", Count: 1 + r.Intn(n)}}
		case 1:
			add = []scenario.Fault{{At: at, Type: "caches", Count: 1 + r.Intn(n)}}
		case 2:
			link := r.Intn(n)
			add = []scenario.Fault{{At: at, Type: "cut", Link: link},
				{At: at + r.Float64()*settle*0.8, Type: "heal", Link: link}}
		case 3:
			add = []scenario.Fault{{At: at, Type: "join", Node: r.Intn(n)}}
		case 4:
			add = []scenario.Fault{{At: at, Type: "leave", Node: 1 + r.Intn(n-1)}}
		case 5:
			add = []scenario.Fault{{At: at, Type: "splice", Node: r.Intn(n), Count: 1 + r.Intn(2)}}
		}
		faults := append(append([]scenario.Fault(nil), sc.Faults...), add...)
		// Churn anchored on a node that has left, or shrinking the ring
		// below three, is unrealizable: such a fault is not drawn.
		if _, size, err := scenario.ChurnPlan(n, faults); err == nil {
			sc.Faults, maxSize = faults, size
		}
	}
	sc.K = maxSize + 1 + r.Intn(3)
	return sc
}

// soakTiers is the order tiers appear in digests.
var soakTiers = []string{crosscheck.EngineState, crosscheck.EngineMsgnet, crosscheck.EngineLive}

// soakDigests folds per-tier results: one digest per tier.
type soakDigests [3]digest

func newSoakDigests() soakDigests {
	return soakDigests{newDigest(), newDigest(), newDigest()}
}

// runScenario runs sc one tier at a time, folds each tier's rule
// executions, observations and census extremes into dg and into the
// returned per-scenario digest, and reports whether the scenario failed
// (it did not validate, or a tier reported a violation).
func runScenario(sc crosscheck.Scenario, res *crosscheck.Resources, o *obs.Observer, tr *tracer, dg *soakDigests, msgs *int64) (scen uint64, failed bool, detail string) {
	root := tr.begin("crosscheck.scenario", -1)
	defer tr.end(root)
	if err := sc.Validate(); err != nil {
		return 0, true, err.Error()
	}
	sd := newDigest()
	for _, tier := range sc.Engines {
		one := sc
		one.Engines = []string{tier}
		var sent int64
		if o != nil {
			sent = o.C.MsgSent.Load()
		}
		sp := tr.begin("crosscheck."+tier, root)
		rep, err := crosscheck.RunWithRes(one, o, res)
		tr.end(sp)
		if err != nil {
			return 0, true, err.Error()
		}
		e := rep.Engines[0]
		if tier == crosscheck.EngineMsgnet && o != nil {
			*msgs += o.C.MsgSent.Load() - sent
		}
		ti := 0
		for i, t := range soakTiers {
			if t == tier {
				ti = i
			}
		}
		dg[ti].add(e.RuleExecutions, int64(e.Observations), int64(e.MinCensus), int64(e.MaxCensus))
		sd.add(int64(ti), e.RuleExecutions, int64(e.Observations), int64(e.MinCensus), int64(e.MaxCensus))
		if !e.OK() {
			return sd.h, true, fmt.Sprintf("%s: %v", tier, e.Violations[0])
		}
	}
	return sd.h, false, ""
}

// soakRefSeed and soakRefCount fix the pinned reference stream, and
// soakRefDigests its per-tier digests (state, msgnet, live).
const (
	soakRefSeed  = 1
	soakRefCount = 16
)

var soakRefDigests = [3]uint64{0x289524f53d2d3e7d, 0x921b2097ad5d941d, 0xff615ab1a1ba79c4}

func runSoak(rc runConfig) (*outcome, error) {
	o := newOutcome(rc.log)

	// Set-up: the resources, the scenario stream, and the pinned
	// reference scenarios, which also warm every tier.
	var gen *soakGen
	var res *crosscheck.Resources
	setups := make([]float64, 0, setupReps)
	for rep := 0; rep < setupReps; rep++ {
		debug.FreeOSMemory()
		start := time.Now()
		res = crosscheck.NewResources()
		gen = newSoakGen(rc.seed)
		gen.at(soakPool - 1)
		ref := newSoakGen(soakRefSeed)
		dg := newSoakDigests()
		var unused int64
		for i := 0; i < soakRefCount; i++ {
			if _, failed, detail := runScenario(ref.at(i), res, nil, nil, &dg, &unused); failed {
				o.expect(false, "reference scenario %d failed: %s", i, detail)
			}
		}
		setups = append(setups, time.Since(start).Seconds())
		for t := range dg {
			o.expect(dg[t].h == soakRefDigests[t], "reference %s digest %#x, pinned %#x", soakTiers[t], dg[t].h, soakRefDigests[t])
		}
	}
	// The repeated set-ups' garbage goes back to the OS before each set-up
	// and before measuring, so the peak resident set is one set-up's.
	debug.FreeOSMemory()

	// pass runs the stream from its start until the budget is spent and
	// returns scenarios per second, each scenario's digest, the per-tier
	// digests and the msgnet message count (when observed).
	pass := func(tr *tracer, ob *obs.Observer) (float64, []uint64, soakDigests, int64) {
		dg := newSoakDigests()
		var msgs int64
		var wall time.Duration
		var scens []uint64
		for start := time.Now(); len(scens) == 0 || time.Since(start) < rc.seconds; {
			sc := gen.at(len(scens))
			t0 := time.Now()
			h, failed, detail := runScenario(sc, res, ob, tr, &dg, &msgs)
			wall += time.Since(t0)
			o.op(failed, "scenario %d (n=%d, seed %d): %s", len(scens), sc.N, sc.Seed, detail)
			scens = append(scens, h)
		}
		return float64(len(scens)) / wall.Seconds(), scens, dg, msgs
	}
	rate, scens, dg, _ := pass(nil, nil)
	fmt.Fprintf(rc.log, "per-tier digests (state, msgnet, live) over %d scenarios: %#x %#x %#x\n",
		len(scens), dg[0].h, dg[1].h, dg[2].h)
	o.metrics["setup_s"] = median(setups)
	o.metrics["items_per_s"] = rate
	o.metrics["peak_rss_mib"] = peakRSSMiB()
	if rc.tr == nil {
		return o, nil
	}

	// Traced pass, then a pass with an observer attached too: both run
	// the same stream from its start, so their digests must agree with
	// the untraced pass over the scenarios all of them reached.
	tracedRate, traced, _, _ := pass(rc.tr, nil)
	spans := rc.tr.snapshot()
	observed := newTracer(rc.tr.workload, rc.tr.runID+"-obs")
	obsRate, withObs, _, msgs := pass(observed, obs.New(nil))
	for i := range scens {
		if i < len(traced) {
			o.expect(traced[i] == scens[i], "scenario %d: traced digest %#x, untraced %#x", i, traced[i], scens[i])
		}
		if i < len(withObs) {
			o.expect(withObs[i] == scens[i], "scenario %d: observed digest %#x, untraced %#x", i, withObs[i], scens[i])
		}
	}
	self := selfByName(spans)
	perK := 1000 / float64(len(traced))
	for _, tier := range soakTiers {
		o.metrics["crosscheck."+tier+"_s"] = self["crosscheck."+tier] * perK
	}
	scen := durations(spans, "crosscheck.scenario")
	_, tailMs := tail(scen)
	o.metrics["crosscheck.scenario_p50_ms"] = median(scen)
	o.metrics["crosscheck.scenario_tail_ms"] = tailMs
	o.metrics["crosscheck.scenarios"] = float64(len(scen))
	o.metrics["msgnet.msgs_per_s"] = float64(msgs) / selfByName(observed.snapshot())["crosscheck.msgnet"]
	o.metrics["obs.overhead_frac"] = overhead(rate, obsRate)
	o.metrics["trace.overhead_frac"] = overhead(rate, tracedRate)
	return o, nil
}
