package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

// diffRun captures everything the differential test compares.
type diffRun struct {
	taps   []TapEvent
	stats  EngineStats
	snaps  []Snapshot[core.State]
	now    float64
	census []int // TrackedCensus samples at the mid and final horizons
}

// diffFault is one scheduled transient fault.
type diffFault struct {
	at   float64
	node int
	s    core.State
}

// diffSetup is one engine configuration the differential tests run: the
// algorithm and start, the engine options, scheduled faults, and an
// optional churn script.
type diffSetup struct {
	alg    *core.Algorithm
	init   statemodel.Config[core.State]
	opts   Options[core.State]
	faults []diffFault
	churn  func(e *Engine[core.State])
}

// diffScenario derives a full engine configuration from the seed so the
// sweep covers ring sizes, jitter on/off, lossy links, incoherent cache
// starts and mid-run fault injections without hand-writing 16 cases.
func diffScenario(seed int64) diffSetup {
	sizes := []int{5, 8, 17}
	n := sizes[int(seed)%len(sizes)]
	a := core.New(n, n+2)
	opts := Options[core.State]{
		Delay:   10 * time.Millisecond,
		Refresh: 60 * time.Millisecond,
		Seed:    seed,
	}
	if seed%2 == 0 {
		opts.Jitter = 3 * time.Millisecond
	}
	if seed%4 == 1 {
		opts.LossProb = 0.15
	}
	init := a.InitialLegitimate()
	if seed%3 == 2 {
		// Arbitrary start with incoherent caches — the stabilization regime.
		rng := rand.New(rand.NewSource(seed * 7))
		for i := range init {
			init[i] = core.State{X: rng.Intn(a.K()), RTS: rng.Intn(2) == 1, TRA: rng.Intn(2) == 1}
		}
		opts.RandomState = func(r *rand.Rand) core.State {
			return core.State{X: r.Intn(a.K()), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
		}
	} else {
		opts.CoherentCaches = true
	}
	faults := []diffFault{
		{at: 0.8, node: int(seed) % n, s: core.State{X: int(seed+3) % a.K(), RTS: true, TRA: true}},
		{at: 1.3, node: int(seed*5) % n, s: core.State{X: int(seed+1) % a.K()}},
	}
	return diffSetup{alg: a, init: init, opts: opts, faults: faults}
}

func runDiff(t *testing.T, seed int64, workers int, reference bool, horizon float64) diffRun {
	t.Helper()
	return runSetup(t, fmt.Sprintf("seed %d", seed), diffScenario(seed), workers, reference, horizon)
}

func runSetup(t *testing.T, name string, d diffSetup, workers int, reference bool, horizon float64) diffRun {
	t.Helper()
	opts := d.opts
	opts.Workers = workers
	e := NewEngine[core.State](d.alg, d.init, opts)
	e.Reference = reference
	e.EnableTaps()
	e.SetPrivilegeCallback(core.HasToken, nil)
	for _, f := range d.faults {
		e.ScheduleInject(f.at, f.node, f.s)
	}
	if d.churn != nil {
		d.churn(e)
	}
	var census []int
	for _, h := range []float64{horizon / 2, horizon} {
		e.RunUntil(h)
		tracked, ok := e.TrackedCensus()
		if !ok {
			t.Fatalf("%s: TrackedCensus unavailable with a privilege callback installed", name)
		}
		if scan := e.Census(core.HasToken); tracked != scan {
			t.Fatalf("%s w=%d at t=%v: tracked census %d != scanned census %d",
				name, workers, h, tracked, scan)
		}
		census = append(census, tracked)
	}
	r := diffRun{taps: e.Taps(), stats: e.Stats(), snaps: e.Snapshots(), now: e.Now(), census: census}
	e.Stop()
	return r
}

// compareToReference runs d on the boxed Reference engine and on the
// sharded engine at every worker count from 1 to 4, and requires the
// full tap stream, stats, final snapshots, census samples and clock to be
// bit-identical.
func compareToReference(t *testing.T, name string, d diffSetup, horizon float64) {
	t.Helper()
	want := runSetup(t, name, d, 1, true, horizon)
	if len(want.taps) == 0 || want.stats.Events == 0 {
		t.Fatalf("%s: reference run degenerate: %d taps, %+v", name, len(want.taps), want.stats)
	}
	for _, w := range []int{1, 2, 3, 4} {
		got := runSetup(t, name, d, w, false, horizon)
		if got.stats != want.stats {
			t.Errorf("%s w=%d: stats diverged:\n got %+v\nwant %+v", name, w, got.stats, want.stats)
		}
		if got.now != want.now {
			t.Errorf("%s w=%d: clock diverged: %v vs %v", name, w, got.now, want.now)
		}
		if !reflect.DeepEqual(got.snaps, want.snaps) {
			t.Errorf("%s w=%d: final snapshots diverged", name, w)
		}
		if !reflect.DeepEqual(got.census, want.census) {
			t.Errorf("%s w=%d: census samples diverged: %v vs %v", name, w, got.census, want.census)
		}
		if !reflect.DeepEqual(got.taps, want.taps) {
			i := 0
			for i < len(got.taps) && i < len(want.taps) && got.taps[i] == want.taps[i] {
				i++
			}
			var g, x TapEvent
			if i < len(got.taps) {
				g = got.taps[i]
			}
			if i < len(want.taps) {
				x = want.taps[i]
			}
			t.Errorf("%s w=%d: taps diverged at %d/%d:\n got %+v\nwant %+v",
				name, w, i, len(want.taps), g, x)
		}
	}
}

// TestEngineMatchesReference is the acceptance-criteria differential
// sweep: across 16 seeds, then across the timing regimes the event
// calendar treats specially, and at every worker count from 1 to 4, the
// sharded engine's full tap stream, stats, final snapshots and clock must
// be bit-identical to the boxed single-loop Reference engine.
func TestEngineMatchesReference(t *testing.T) {
	const horizon = 2.0
	for seed := int64(1); seed <= 16; seed++ {
		compareToReference(t, fmt.Sprintf("seed %d", seed), diffScenario(seed), horizon)
	}
	for _, r := range diffRegimes() {
		compareToReference(t, r.name, r.setup, r.horizon)
	}
}

// diffRegime is a named configuration of the differential sweep.
type diffRegime struct {
	name    string
	horizon float64
	setup   diffSetup
}

// diffRegimes are the configurations that stress the event calendar
// rather than the algorithm: events re-armed inside the open epoch,
// arrivals several epochs out, records beyond the bucket window,
// accumulated epoch horizons drifting across bucket boundaries, churn,
// and buckets crowded enough to be sliced. Each starts legitimate with
// coherent caches and keeps its seed's loss and two faults.
func diffRegimes() []diffRegime {
	regime := func(seed int64, n, k int, delay, jitter, refresh time.Duration) diffSetup {
		d := diffScenario(seed)
		d.alg = core.New(n, k)
		d.init = d.alg.InitialLegitimate()
		d.opts.Delay, d.opts.Jitter, d.opts.Refresh = delay, jitter, refresh
		d.opts.RandomState, d.opts.CoherentCaches = nil, true
		for i := range d.faults {
			d.faults[i].node %= n
			d.faults[i].s.X %= k
		}
		return d
	}
	ms := time.Millisecond
	// Refresh < Delay: a refresh timer re-arms inside the epoch it fired in.
	shortRefresh := regime(3, 8, 10, 10*ms, 2*ms, 3*ms)
	// Jitter > Delay: arrivals land up to four epochs out.
	wideJitter := regime(5, 8, 10, 10*ms, 25*ms, 60*ms)
	// Refresh far beyond the 64-epoch bucket window, and an inject at t=5s.
	longRefresh := regime(6, 8, 10, 10*ms, 2*ms, 700*ms)
	longRefresh.faults = append(longRefresh.faults, diffFault{at: 5, node: 3, s: core.State{X: 4, RTS: true}})
	// A Delay with no exact binary form: over 100s of virtual time the
	// accumulated horizons drift off k·Delay across bucket boundaries.
	// Without jitter, frames chained from the t=0 announcements land
	// exactly on epoch horizons.
	drift := regime(7, 5, 7, 7*ms, 0, 40*ms)
	// Join, leave and splice mid-run.
	churn := regime(9, 6, 10, 10*ms, 2*ms, 50*ms)
	churn.opts.Spare = 1
	churn.churn = func(e *Engine[core.State]) {
		e.ScheduleJoin(0.8, 3, core.State{X: 5})
		e.ScheduleLeave(2.0, 4)
		e.ScheduleSplice(4.0, 0, 2)
	}
	// Rings large enough that each shard's epoch bucket, at every worker
	// count, is split into several slices of more than smallRun records:
	// the counting sort and the multi-slice open run, and with Refresh <
	// Delay the re-armed timers cross slice boundaries. Their faults move
	// inside the shorter horizon.
	largeLossy := regime(13, 3000, 3001, 10*ms, 3*ms, 15*ms)
	largeLossy.opts.LossProb = 0.1
	largeShortRefresh := regime(11, 3000, 3001, 10*ms, 2*ms, 3*ms)
	for _, d := range []*diffSetup{&largeLossy, &largeShortRefresh} {
		for i := range d.faults {
			d.faults[i].at /= 4
		}
	}
	return []diffRegime{
		{"refresh<delay", 2, shortRefresh},
		{"jitter>delay", 2, wideJitter},
		{"refresh>>window", 6, longRefresh},
		{"drifting delay", 100, drift},
		{"churn", 6, churn},
		{"large lossy", 0.5, largeLossy},
		{"large refresh<delay", 0.5, largeShortRefresh},
	}
}

// TestEngineWorkerCountInvariance re-runs one lossy jittered scenario at
// a longer horizon across asymmetric worker counts — shard arcs of very
// different sizes must still replay the same execution.
func TestEngineWorkerCountInvariance(t *testing.T) {
	const horizon = 4.0
	want := runDiff(t, 4, 1, false, horizon)
	for _, w := range []int{2, 3, 4} {
		got := runDiff(t, 4, w, false, horizon)
		if got.stats != want.stats || !reflect.DeepEqual(got.taps, want.taps) || !reflect.DeepEqual(got.snaps, want.snaps) {
			t.Errorf("w=%d diverged from w=1 at horizon %v", w, horizon)
		}
	}
}

// TestEngineRerunReproducible: constructing the same engine twice yields
// the same execution — no hidden global state.
func TestEngineRerunReproducible(t *testing.T) {
	a := runDiff(t, 9, 2, false, 2.0)
	b := runDiff(t, 9, 2, false, 2.0)
	if a.stats != b.stats || !reflect.DeepEqual(a.taps, b.taps) {
		t.Fatal("identical construction diverged across runs")
	}
}

// TestEnginePrivilegeCallbackOrder pins the callback contract: each
// node's sequence of privilege callbacks is the same at every worker
// count from 1 to 4 and under the time-ordered Reference engine, and
// with one worker the callbacks of one epoch come node by node.
func TestEnginePrivilegeCallbackOrder(t *testing.T) {
	regimes := diffRegimes()
	cases := []diffRegime{
		{"seed 2", 2, diffScenario(2)},
		{"seed 5", 2, diffScenario(5)},
		regimes[0], // refresh<delay
		regimes[4], // churn
		regimes[6], // large refresh<delay: sliced buckets
	}
	for _, c := range cases {
		d := c.setup
		run := func(workers int, reference bool) [][]bool {
			opts := d.opts
			opts.Workers = workers
			e := NewEngine[core.State](d.alg, d.init, opts)
			e.Reference = reference
			seqs := make([][]bool, e.total)
			var epoch []int // one worker: the nodes called back this epoch
			e.SetPrivilegeCallback(core.HasToken, func(id int, holds bool) {
				seqs[id] = append(seqs[id], holds)
				if workers == 1 && !reference {
					epoch = append(epoch, id)
				}
			})
			for _, f := range d.faults {
				e.ScheduleInject(f.at, f.node, f.s)
			}
			if d.churn != nil {
				d.churn(e)
			}
			for e.Now() < c.horizon {
				e.RunUntil(e.Now() + e.delay)
				if !slices.IsSorted(epoch) {
					t.Fatalf("%s: one worker called back nodes %v within the epoch ending at %v", c.name, epoch, e.Now())
				}
				epoch = epoch[:0]
			}
			e.Stop()
			return seqs
		}
		want := run(1, true)
		calls := 0
		for _, s := range want {
			calls += len(s)
		}
		if calls == 0 {
			t.Fatalf("%s: no privilege callbacks", c.name)
		}
		for _, w := range []int{1, 2, 3, 4} {
			got := run(w, false)
			for id := range want {
				if !slices.Equal(got[id], want[id]) {
					t.Errorf("%s w=%d: node %d's callbacks diverged from the Reference engine's", c.name, w, id)
					break
				}
			}
		}
	}
}
