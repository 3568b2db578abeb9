package statemodel_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ssrmin/internal/bitslice"
	"ssrmin/internal/compose"
	"ssrmin/internal/core"
	"ssrmin/internal/daemon"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// daemonMakers builds every scheduler family of the oracle test. Each
// maker returns a fresh daemon with fixed seeds, so two calls yield
// schedulers that draw identically on identical enabled sets.
func daemonMakers(n int) map[string]func() statemodel.Daemon {
	return map[string]func() statemodel.Daemon{
		"central-random": func() statemodel.Daemon { return daemon.NewCentralRandom(rand.New(rand.NewSource(7))) },
		"synchronous":    func() statemodel.Daemon { return daemon.Synchronous{} },
		"random-subset":  func() statemodel.Daemon { return daemon.NewRandomSubset(rand.New(rand.NewSource(7)), 0.4) },
		"bitslice-subset": func() statemodel.Daemon {
			rng := bitslice.SeedStream(7, n%bitslice.Lanes)
			return bitslice.NewSubsetDaemon(&rng)
		},
	}
}

// lockstep drives Simulator.Step and the reference loop Enabled → Select
// → Apply side by side, each under its own daemon from mk, and fails on
// the first step where the executed moves or the configurations differ.
// It returns the reference schedule.
func lockstep[S comparable](t *testing.T, alg statemodel.Algorithm[S], init statemodel.Config[S], mk func() statemodel.Daemon, steps int) statemodel.Schedule {
	t.Helper()
	sim := statemodel.NewSimulator[S](alg, mk(), init)
	ref := mk()
	cfg := init.Clone()
	var sched statemodel.Schedule
	for step := 1; step <= steps; step++ {
		enabled := statemodel.Enabled(alg, cfg)
		got, ok := sim.Step()
		if len(enabled) == 0 {
			if ok {
				t.Fatalf("step %d: Step moved %v on a deadlocked configuration", step, got)
			}
			return sched
		}
		want := ref.Select(enabled)
		cfg = statemodel.Apply(alg, cfg, want)
		if !ok || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: Step moved %v (ok %v), reference %v", step, got, ok, want)
		}
		if !sim.Config().Equal(cfg) {
			t.Fatalf("step %d: Step reached %v, reference %v", step, sim.Config(), cfg)
		}
		sched = append(sched, append([]statemodel.Move(nil), want...))
	}
	if sim.Steps() != steps {
		t.Fatalf("Steps() = %d after %d steps", sim.Steps(), steps)
	}
	return sched
}

// oracle runs lockstep under every daemon family, then replays the
// central-random schedule through ReplayDaemon on both sides.
func oracle[S comparable](t *testing.T, alg statemodel.Algorithm[S], init statemodel.Config[S], steps int) {
	var sched statemodel.Schedule
	for name, mk := range daemonMakers(alg.N()) {
		t.Run(name, func(t *testing.T) {
			s := lockstep(t, alg, init, mk, steps)
			if name == "central-random" {
				sched = s
			}
		})
	}
	t.Run("replay", func(t *testing.T) {
		lockstep(t, alg, init, func() statemodel.Daemon { return statemodel.NewReplay(sched) }, len(sched))
	})
}

// TestStepMatchesReferenceLoop pins Simulator.Step, which re-evaluates
// only the movers and their neighbors, step for step against the
// full-rescan reference loop on SSRmin, Dijkstra's K-state ring and a
// composition, from random configurations.
func TestStepMatchesReferenceLoop(t *testing.T) {
	for _, n := range []int{3, 5, 11} {
		r := rand.New(rand.NewSource(int64(n)))
		k := n + 2
		t.Run(fmt.Sprintf("core/n=%d", n), func(t *testing.T) {
			init := make(statemodel.Config[core.State], n)
			for i := range init {
				init[i] = core.State{X: r.Intn(k), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
			}
			oracle[core.State](t, core.New(n, k), init, 300)
		})
		t.Run(fmt.Sprintf("dijkstra/n=%d", n), func(t *testing.T) {
			init := make(statemodel.Config[dijkstra.State], n)
			for i := range init {
				init[i] = dijkstra.State{X: r.Intn(k)}
			}
			oracle[dijkstra.State](t, dijkstra.New(n, k), init, 300)
		})
		t.Run(fmt.Sprintf("compose/n=%d", n), func(t *testing.T) {
			inner := core.New(n, k)
			c := compose.New[core.State](inner, 2)
			parts := make([]statemodel.Config[core.State], 2)
			for j := range parts {
				parts[j] = make(statemodel.Config[core.State], n)
				for i := range parts[j] {
					parts[j][i] = core.State{X: r.Intn(k), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
				}
			}
			oracle[compose.MultiState[core.State]](t, c, c.Pack(parts...), 300)
		})
	}
}

// fixedSelect is a daemon returning one fixed selection.
type fixedSelect []statemodel.Move

func (fixedSelect) Name() string                                 { return "fixed" }
func (d fixedSelect) Select([]statemodel.Move) []statemodel.Move { return d }

// TestStepRejectsBadSelections pins Step's panics and their messages when
// a daemon selects the empty set, a move that is not enabled (a disabled
// process, a wrong rule, an out-of-range process), or one move twice.
func TestStepRejectsBadSelections(t *testing.T) {
	alg := core.New(5, 6)
	init := alg.InitialLegitimate()
	enabled := statemodel.Enabled[core.State](alg, init)
	if len(enabled) == 0 {
		t.Fatal("legitimate configuration has no enabled move")
	}
	on := enabled[0]
	off := statemodel.Move{Process: (on.Process + 2) % 5, Rule: 1}
	for _, m := range enabled {
		if m.Process == off.Process {
			t.Fatalf("process %d unexpectedly enabled: %v", off.Process, enabled)
		}
	}
	cases := []struct {
		name string
		sel  []statemodel.Move
		want string
	}{
		{"empty", nil, "statemodel: daemon selected the empty set"},
		{"disabled-process", []statemodel.Move{off}, fmt.Sprintf("statemodel: daemon selected %v which is not enabled", off)},
		{"wrong-rule", []statemodel.Move{{Process: on.Process, Rule: on.Rule%5 + 1}},
			fmt.Sprintf("statemodel: daemon selected %v which is not enabled", statemodel.Move{Process: on.Process, Rule: on.Rule%5 + 1})},
		{"out-of-range", []statemodel.Move{{Process: 9, Rule: 1}}, "statemodel: daemon selected P9/R1 which is not enabled"},
		{"duplicate", []statemodel.Move{on, on}, fmt.Sprintf("statemodel: daemon selected %v twice", on)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := statemodel.NewSimulator[core.State](alg, fixedSelect(tc.sel), init)
			defer func() {
				got := fmt.Sprint(recover())
				if got != tc.want {
					t.Errorf("panic %q, want %q", got, tc.want)
				}
				if !sim.Config().Equal(init) || sim.Steps() != 0 {
					t.Errorf("rejected selection changed the simulator: %v after %d steps", sim.Config(), sim.Steps())
				}
			}()
			sim.Step()
		})
	}
}

// TestStepZeroAlloc pins Step at zero allocations per transition once
// warmed up, under a non-allocating daemon with no observer and no hook.
func TestStepZeroAlloc(t *testing.T) {
	alg := core.New(16, 17)
	r := rand.New(rand.NewSource(1))
	init := make(statemodel.Config[core.State], 16)
	for i := range init {
		init[i] = core.State{X: r.Intn(17), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
	}
	rng := bitslice.SeedStream(1, 0)
	sim := statemodel.NewSimulator[core.State](alg, bitslice.NewSubsetDaemon(&rng), init)
	sim.Run(100)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := sim.Step(); !ok {
			t.Fatal("deadlock")
		}
	}); allocs != 0 {
		t.Errorf("Step allocates %v times per transition", allocs)
	}
}
