package runtime

// Live-tier behaviours of the Engine: the paced Start/Stop deployment that
// NewLiveRing uses, plus deterministic RunUntil checks of the Figure 11
// gap, stabilization over lossy links and snapshot shape.

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// pacedOpts are sub-millisecond links, so a paced engine circulates the
// privilege many times within a short wall-clock window.
func pacedOpts(seed int64, workers int) Options[core.State] {
	return Options[core.State]{
		Delay:          500 * time.Microsecond,
		Jitter:         200 * time.Microsecond,
		Refresh:        2 * time.Millisecond,
		Seed:           seed,
		CoherentCaches: true,
		Workers:        workers,
	}
}

func TestStartStop(t *testing.T) {
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 2))
	e.Start()
	time.Sleep(20 * time.Millisecond)
	e.Stop()
	// Stop is idempotent.
	e.Stop()
	if e.RuleExecutions() == 0 {
		t.Error("no rule executions in 20ms")
	}
	if carried, _ := e.LinkStats(); carried == 0 {
		t.Error("no message carried")
	}
}

// TestDoubleStartPanics: a paced multi-worker engine refuses a second
// start through either entry point while it is running.
func TestDoubleStartPanics(t *testing.T) {
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 2))
	e.Start()
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Error("StartContext after Start accepted")
		}
	}()
	e.StartContext(context.Background())
}

// TestLiveCirculation checks that the privilege visits every node of a
// paced ring within a generous wall-clock budget.
func TestLiveCirculation(t *testing.T) {
	a, e := newSSRminEngine(5, 6, pacedOpts(1, 2))
	e.Start()
	defer e.Stop()
	visited := map[int]bool{}
	deadline := time.Now().Add(3 * time.Second)
	for len(visited) < a.N() && time.Now().Before(deadline) {
		for _, h := range e.Holders(core.HasToken) {
			visited[h] = true
		}
		time.Sleep(200 * time.Microsecond)
	}
	if len(visited) != a.N() {
		t.Fatalf("privilege visited %d/%d nodes: %v", len(visited), a.N(), visited)
	}
}

// TestLiveMutualInclusion samples the census of a paced single-worker
// engine (the pacer runs every epoch itself, no worker loops) started
// legitimate and coherent: the census must stay within 1–2.
func TestLiveMutualInclusion(t *testing.T) {
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 1))
	e.Start()
	defer e.Stop()
	stats := e.WatchCensus(core.HasToken, 300*time.Millisecond, 100*time.Microsecond)
	if stats.Samples < 100 {
		t.Fatalf("only %d samples", stats.Samples)
	}
	if stats.Min < 1 || stats.Max > 2 {
		t.Fatalf("census left [1,2]: %+v", stats)
	}
	if stats.DistinctHolders < 3 {
		t.Errorf("only %d distinct holders in 300ms", stats.DistinctHolders)
	}
}

// TestLiveDijkstraShowsGaps runs plain SSToken through the same transform
// and requires an epoch boundary with no privileged node — Figure 11 on
// the live tier. Every boundary is an instantaneous cut of a seeded
// execution, so the gap is deterministic, not a sampling accident.
func TestLiveDijkstraShowsGaps(t *testing.T) {
	a := dijkstra.New(5, 6)
	e := NewEngine[dijkstra.State](a, a.InitialLegitimate(), Options[dijkstra.State]{
		Delay:          10 * time.Millisecond,
		Jitter:         2 * time.Millisecond,
		Refresh:        50 * time.Millisecond,
		Seed:           2,
		CoherentCaches: true,
	})
	zero := 0
	for e.Now() < 2 {
		e.RunUntil(e.Now() + 0.01)
		if len(e.Holders(dijkstra.HasToken)) == 0 {
			zero++
		}
	}
	if zero == 0 {
		t.Fatal("SSToken kept a privileged node at every epoch boundary; want a zero-token instant")
	}
	if e.RuleExecutions() == 0 {
		t.Fatal("SSToken executed no rules")
	}
}

// TestLiveStabilizationFromArbitrary starts from garbage states with
// self-seeded caches over lossy links and requires the ring to reach and
// hold the 1–2 regime.
func TestLiveStabilizationFromArbitrary(t *testing.T) {
	a := core.New(5, 7)
	init := statemodel.Config[core.State]{
		{X: 3, RTS: true, TRA: true}, {X: 1}, {X: 6, TRA: true}, {X: 2, RTS: true}, {X: 2},
	}
	e := NewEngine[core.State](a, init, Options[core.State]{
		Delay:    10 * time.Millisecond,
		Jitter:   6 * time.Millisecond,
		LossProb: 0.05,
		Refresh:  40 * time.Millisecond,
		Seed:     3,
		Workers:  2,
	})
	defer e.Stop()
	e.RunUntil(20) // settle: » O(n²) rule executions
	if minC, maxC, _ := sampleCensus(e, 25); minC < 1 || maxC > 2 {
		t.Fatalf("census out of [1,2] after settling: [%d,%d]", minC, maxC)
	}
}

// TestPrivilegeCallback exercises the application hook in paced mode:
// every node must report becoming privileged at least once.
func TestPrivilegeCallback(t *testing.T) {
	a, e := newSSRminEngine(5, 6, pacedOpts(1, 2))
	var became [5]atomic.Int64
	e.SetPrivilegeCallback(core.HasToken, func(id int, holds bool) {
		if holds {
			became[id].Add(1)
		}
	})
	e.Start()
	defer e.Stop()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for i := 0; i < a.N(); i++ {
			if became[i].Load() == 0 {
				all = false
			}
		}
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("not every node became privileged: %v", []int64{
		became[0].Load(), became[1].Load(), became[2].Load(), became[3].Load(), became[4].Load(),
	})
}

func TestSetPrivilegeCallbackAfterStartPanics(t *testing.T) {
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 1))
	e.Start()
	defer e.Stop()
	defer func() {
		if recover() == nil {
			t.Error("SetPrivilegeCallback after Start accepted")
		}
	}()
	e.SetPrivilegeCallback(core.HasToken, nil)
}

func TestSnapshotsShape(t *testing.T) {
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 1))
	snaps := e.Snapshots()
	if len(snaps) != 5 {
		t.Fatalf("%d snapshots", len(snaps))
	}
	// Before the first run, snapshot = init with coherent caches.
	if snaps[1].CachePred != (core.State{X: 0, TRA: true}) {
		t.Errorf("P1 cache of P0 = %v", snaps[1].CachePred)
	}
}

// TestNewRingValidation: the live-tier constructor rejects an init
// configuration of the wrong length, short or long, and a negative Spare,
// under the paced options a live deployment uses.
func TestNewRingValidation(t *testing.T) {
	a := core.New(3, 4)
	cases := map[string]func(){
		"short init": func() {
			NewEngine[core.State](a, statemodel.Config[core.State]{{}, {}}, pacedOpts(1, 2))
		},
		"long init": func() {
			NewEngine[core.State](a, statemodel.Config[core.State]{{}, {}, {}, {}}, pacedOpts(1, 2))
		},
		"negative spare": func() {
			opts := pacedOpts(1, 2)
			opts.Spare = -1
			NewEngine[core.State](a, a.InitialLegitimate(), opts)
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			f()
		}()
	}
}

// TestEngineSnapshotsIncludeSpares: an engine with spares reports one
// snapshot per node id, n + Spare in all, and a joined spare's snapshot
// is the view the census reads.
func TestEngineSnapshotsIncludeSpares(t *testing.T) {
	opts := engineOpts(4, 1)
	opts.Spare = 2
	_, e := newSSRminEngine(5, 8, opts)
	if snaps := e.Snapshots(); len(snaps) != 7 || snaps[5] != (Snapshot[core.State]{}) {
		t.Fatalf("fresh engine: %d snapshots, spare 5 = %+v", len(snaps), snaps[5])
	}
	e.ScheduleJoin(0.5, 2, core.State{X: 3, RTS: true})
	e.RunUntil(2)
	snaps := e.Snapshots()
	if len(snaps) != 7 {
		t.Fatalf("%d snapshots after the join, want 7", len(snaps))
	}
	if snaps[6] != (Snapshot[core.State]{}) {
		t.Errorf("dormant spare 6 = %+v, want the zero snapshot", snaps[6])
	}
	members := e.Members()
	var fromSnaps []int
	for i := range snaps {
		v := statemodel.View[core.State]{I: i, N: 5, Self: snaps[i].State, Pred: snaps[i].CachePred, Succ: snaps[i].CacheSucc}
		if !e.nodes[i].Detached() && core.HasToken(v) {
			fromSnaps = append(fromSnaps, i)
		}
	}
	if len(members) != 6 || members[3] != 5 {
		t.Fatalf("members %v, want spare 5 joined after node 2", members)
	}
	if holders := e.Holders(core.HasToken); !slices.Equal(fromSnaps, holders) {
		t.Fatalf("holders from snapshots %v != Holders %v", fromSnaps, holders)
	}
}

// TestLiveFaultInjectionRecovers hits a paced ring with live soft errors
// and verifies the census returns to [1,2] and stays there.
func TestLiveFaultInjectionRecovers(t *testing.T) {
	a, e := newSSRminEngine(5, 6, pacedOpts(1, 2))
	e.Start()
	defer e.Stop()
	time.Sleep(20 * time.Millisecond)

	for round := 0; round < 3; round++ {
		if !e.Inject(round%a.N(), core.State{X: (round * 3) % 6, RTS: true, TRA: true}) {
			t.Fatal("injection dropped")
		}
		e.Inject((round+2)%a.N(), core.State{X: (round + 1) % 6})
		time.Sleep(150 * time.Millisecond) // » worst-case recovery at n=5
		stats := e.WatchCensus(core.HasToken, 100*time.Millisecond, 100*time.Microsecond)
		if stats.Min < 1 || stats.Max > 2 {
			t.Fatalf("round %d: census %+v after fault", round, stats)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("Inject out of range accepted")
		}
	}()
	e.Inject(99, core.State{})
}
