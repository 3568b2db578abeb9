package runtime

import (
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

// TestEnginePrivilegeEveryTick checks the privilege the engine reuses
// while a node's core is quiet (see step) at every epoch boundary, not
// only at the two samples runSetup takes: across the differential
// regimes with injects, loss, jitter, incoherent starts, churn and
// Refresh < Delay, at one and three workers, the tracked census must
// equal a fresh scan after every RunUntil(now+Delay), and every
// privilege callback must report the predicate's value on the node's
// current view. Besides core.HasToken, whose changes mostly coincide with
// an enabled rule, it installs a predicate of the cached X values that
// flips on deliveries which enable nothing.
func TestEnginePrivilegeEveryTick(t *testing.T) {
	regimes := diffRegimes()
	cases := []diffRegime{
		{"seed 1", 2, diffScenario(1)}, // lossy, coherent
		{"seed 2", 2, diffScenario(2)}, // jittered, incoherent
		{"seed 5", 2, diffScenario(5)}, // lossy, incoherent
		regimes[0],                     // refresh<delay
		regimes[1],                     // jitter>delay
		regimes[4],                     // churn
	}
	holders := []struct {
		name string
		pred func(statemodel.View[core.State]) bool
	}{
		{"HasToken", core.HasToken},
		{"cache parity", func(v statemodel.View[core.State]) bool { return (v.Self.X+v.Pred.X+2*v.Succ.X)%3 == 0 }},
	}
	for _, c := range cases {
		d := c.setup
		for _, h := range holders {
			for _, w := range []int{1, 3} {
				opts := d.opts
				opts.Workers = w
				e := NewEngine[core.State](d.alg, d.init, opts)
				var calls, wrong atomic.Int64
				// Each worker calls back only for nodes of its own shard, so
				// reading the node's view here races nothing.
				e.SetPrivilegeCallback(h.pred, func(id int, holds bool) {
					calls.Add(1)
					if holds != h.pred(e.nodes[id].View(id, e.n)) {
						wrong.Add(1)
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
					tracked, _ := e.TrackedCensus()
					if scan := e.Census(h.pred); tracked != scan {
						t.Fatalf("%s %s w=%d t=%v: tracked census %d != scanned census %d",
							c.name, h.name, w, e.Now(), tracked, scan)
					}
				}
				e.Stop()
				if calls.Load() == 0 || wrong.Load() != 0 {
					t.Errorf("%s %s w=%d: %d of %d privilege callbacks disagree with the predicate on the node's view",
						c.name, h.name, w, wrong.Load(), calls.Load())
				}
			}
		}
	}
}

// TestEngineHoldersPerShard holds the per-shard holder scan to a
// sequential scan over Snapshots. The ring is large enough that every
// shard arc at w = 2..4 reaches holderArcMin (so the arcs are scanned
// concurrently) and starts from random states with random caches, so the
// holders scatter over every shard; loss and jitter keep the execution
// irregular.
func TestEngineHoldersPerShard(t *testing.T) {
	const n = 3 * 4 * holderArcMin
	alg := core.New(n, n+1)
	rng := rand.New(rand.NewSource(1))
	draw := func(r *rand.Rand) core.State {
		return core.State{X: r.Intn(alg.K()), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
	}
	init := make(statemodel.Config[core.State], n)
	for i := range init {
		init[i] = draw(rng)
	}
	preds := []func(statemodel.View[core.State]) bool{core.HasPrimary, core.HasSecondary, core.HasToken}
	for w := 1; w <= 4; w++ {
		e := NewEngine[core.State](alg, init, Options[core.State]{
			Delay:       10 * time.Millisecond,
			Jitter:      3 * time.Millisecond,
			Refresh:     30 * time.Millisecond,
			LossProb:    0.1,
			Seed:        7,
			RandomState: draw,
			Workers:     w,
		})
		for tick := 0; tick < 6; tick++ {
			e.RunUntil(e.Now() + 2*e.delay)
			snaps := e.Snapshots()
			for pi, holder := range preds {
				var want []int
				for i, s := range snaps {
					if holder(statemodel.View[core.State]{I: i, N: n, Self: s.State, Pred: s.CachePred, Succ: s.CacheSucc}) {
						want = append(want, i)
					}
				}
				if len(want) < 2 || want[0] >= n/4 || want[len(want)-1] < 3*n/4 {
					t.Fatalf("w=%d t=%v predicate %d: holders %v do not span the shards; the scan is not exercised",
						w, e.Now(), pi, want)
				}
				if got := e.Holders(holder); !slices.Equal(got, want) {
					t.Fatalf("w=%d t=%v predicate %d: per-shard holders (%d) differ from the sequential scan (%d)",
						w, e.Now(), pi, len(got), len(want))
				}
				if got := e.Census(holder); got != len(want) {
					t.Fatalf("w=%d t=%v predicate %d: census %d, sequential scan %d", w, e.Now(), pi, got, len(want))
				}
			}
		}
		e.Stop()
	}
}
