package bitslice

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// TestTranspose64 pins the bit-matrix orientation: out[i] bit L must be
// in[L] bit i, checked against a naive per-bit transpose.
func TestTranspose64(t *testing.T) {
	var in, out, want [Lanes]uint64
	r := SeedStream(7, 0)
	for i := range in {
		in[i] = r.Next()
	}
	for i := 0; i < Lanes; i++ {
		for l := 0; l < Lanes; l++ {
			want[i] |= (in[l] >> uint(i) & 1) << uint(l)
		}
	}
	transpose64(&in, &out)
	if out != want {
		t.Fatalf("transpose64 orientation wrong")
	}
}

// TestIncModK sweeps every digit for several alphabets, including the
// power-of-two case where the truncated K constant is zero.
func TestIncModK(t *testing.T) {
	for _, k := range []int{5, 8, 9, 16, 17, 33} {
		planes := planesFor(k)
		src := make([]uint64, planes)
		dst := make([]uint64, planes)
		kc := make([]uint64, planes)
		broadcastK(kc, k)
		for v := 0; v < k; v++ {
			for lane := 0; lane < Lanes; lane++ {
				setDigitLane(src, lane, (v+lane)%k)
			}
			incModK(dst, src, kc)
			for lane := 0; lane < Lanes; lane++ {
				want := ((v+lane)%k + 1) % k
				if got := digitLane(dst, lane); got != want {
					t.Fatalf("K=%d lane=%d: inc(%d) = %d, want %d", k, lane, (v+lane)%k, got, want)
				}
			}
		}
	}
}

// TestRNGMatchesScalarStream checks SeedStream determinism and lane
// decorrelation (no two of the first lanes share their first draws).
func TestRNGMatchesScalarStream(t *testing.T) {
	seen := map[uint64]int{}
	for lane := 0; lane < Lanes; lane++ {
		a, b := SeedStream(42, lane), SeedStream(42, lane)
		if a.Next() != b.Next() || a.Next() != b.Next() {
			t.Fatalf("lane %d: SeedStream not deterministic", lane)
		}
		c := SeedStream(42, lane)
		first := c.Next()
		if prev, dup := seen[first]; dup {
			t.Fatalf("lanes %d and %d share their first draw", prev, lane)
		}
		seen[first] = lane
	}
}

// checkLane compares one extracted lane against a scalar configuration.
func checkLaneSSRmin(t *testing.T, b *SSRmin, lane int, want statemodel.Config[core.State], at string) {
	t.Helper()
	got := b.LaneConfig(lane)
	if !got.Equal(want) {
		t.Fatalf("%s: lane %d diverged\n batch:  %v\n scalar: %v", at, lane, got, want)
	}
}

// TestSSRminMatchesScalar steps seeded batches against 64 scalar
// simulators configuration-for-configuration, and checks the legitimacy
// mask against core.Algorithm.Legitimate at every step.
func TestSSRminMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		n, k  int
		kind  DaemonKind
		seed  int64
		steps int
	}{
		{5, 7, Subset, 1, 120},
		{5, 8, Synchronous, 2, 120},
		{8, 16, Subset, 3, 80},
		{13, 17, Subset, 4, 60},
		{64, 65, Subset, 5, 25},
	} {
		alg := core.New(tc.n, tc.k)
		b := NewSSRmin(tc.n, tc.k, tc.kind)
		b.SeedLanes(tc.seed)

		sims := make([]*statemodel.Simulator[core.State], Lanes)
		for lane := 0; lane < Lanes; lane++ {
			rng := SeedStream(tc.seed, lane)
			init := make(statemodel.Config[core.State], tc.n)
			for i := range init {
				init[i] = SampleSSRmin(&rng, tc.k)
			}
			r := rng // pin the stream copy for this lane's daemon
			sims[lane] = statemodel.NewSimulator[core.State](alg, scalarDaemon(tc.kind, &r), init)
			checkLaneSSRmin(t, b, lane, init, "seeding")
		}
		for s := 0; s < tc.steps; s++ {
			legit := b.LegitMask()
			for lane := 0; lane < Lanes; lane++ {
				if got, want := legit>>uint(lane)&1 == 1, alg.Legitimate(sims[lane].Config()); got != want {
					t.Fatalf("n=%d step %d lane %d: legit mask %v, scalar %v", tc.n, s, lane, got, want)
				}
			}
			if stuck := b.Step(); stuck != 0 {
				t.Fatalf("n=%d step %d: unexpected deadlock mask %#x", tc.n, s, stuck)
			}
			for lane := 0; lane < Lanes; lane++ {
				if _, ok := sims[lane].Step(); !ok {
					t.Fatalf("n=%d step %d lane %d: scalar deadlock", tc.n, s, lane)
				}
				checkLaneSSRmin(t, b, lane, sims[lane].Config(), "stepping")
			}
		}
	}
}

// TestSSTokenMatchesScalar is the SSToken twin of the test above.
func TestSSTokenMatchesScalar(t *testing.T) {
	for _, tc := range []struct {
		n, k  int
		kind  DaemonKind
		seed  int64
		steps int
	}{
		{5, 7, Subset, 11, 120},
		{5, 8, Synchronous, 12, 120},
		{9, 16, Subset, 13, 80},
		{64, 66, Subset, 14, 25},
	} {
		alg := dijkstra.New(tc.n, tc.k)
		b := NewSSToken(tc.n, tc.k, tc.kind)
		b.SeedLanes(tc.seed)

		sims := make([]*statemodel.Simulator[dijkstra.State], Lanes)
		for lane := 0; lane < Lanes; lane++ {
			rng := SeedStream(tc.seed, lane)
			init := make(statemodel.Config[dijkstra.State], tc.n)
			for i := range init {
				init[i] = SampleSSToken(&rng, tc.k)
			}
			r := rng
			sims[lane] = statemodel.NewSimulator[dijkstra.State](alg, scalarDaemon(tc.kind, &r), init)
			if !b.LaneConfig(lane).Equal(init) {
				t.Fatalf("n=%d lane %d: seeding diverged", tc.n, lane)
			}
		}
		for s := 0; s < tc.steps; s++ {
			legit := b.LegitMask()
			for lane := 0; lane < Lanes; lane++ {
				if got, want := legit>>uint(lane)&1 == 1, alg.Legitimate(sims[lane].Config()); got != want {
					t.Fatalf("n=%d step %d lane %d: legit mask %v, scalar %v", tc.n, s, lane, got, want)
				}
			}
			if stuck := b.Step(); stuck != 0 {
				t.Fatalf("n=%d step %d: unexpected deadlock mask %#x", tc.n, s, stuck)
			}
			for lane := 0; lane < Lanes; lane++ {
				if _, ok := sims[lane].Step(); !ok {
					t.Fatalf("n=%d step %d lane %d: scalar deadlock", tc.n, s, lane)
				}
				if got, want := b.LaneConfig(lane), sims[lane].Config(); !got.Equal(want) {
					t.Fatalf("n=%d step %d lane %d diverged\n batch:  %v\n scalar: %v", tc.n, s, lane, got, want)
				}
			}
		}
	}
}

// TestRunMatchesScalarRunUntil pins the whole convergence loop — step
// counts and converged flags — against RunUntil per lane, for both
// algorithms and both daemons.
func TestRunMatchesScalarRunUntil(t *testing.T) {
	for _, kind := range []DaemonKind{Synchronous, Subset} {
		for _, seed := range []int64{1, 99} {
			n, k := 8, 12
			bound := core.New(n, k).ConvergenceStepBound()
			b := NewSSRmin(n, k, kind)
			b.SeedLanes(seed)
			steps, converged := b.Run(bound)
			for lane := 0; lane < Lanes; lane++ {
				ws, wok := ScalarSSRminRun(n, k, kind, seed, lane, bound)
				if steps[lane] != ws || (converged>>uint(lane)&1 == 1) != wok {
					t.Fatalf("ssrmin %v seed %d lane %d: batch (%d,%v) scalar (%d,%v)",
						kind, seed, lane, steps[lane], converged>>uint(lane)&1 == 1, ws, wok)
				}
			}

			d := NewSSToken(n, k, kind)
			d.SeedLanes(seed)
			dBound := 3 * dijkstra.New(n, k).ConvergenceBound()
			dSteps, dConv := d.Run(dBound)
			for lane := 0; lane < Lanes; lane++ {
				ws, wok := ScalarSSTokenRun(n, k, kind, seed, lane, dBound)
				if dSteps[lane] != ws || (dConv>>uint(lane)&1 == 1) != wok {
					t.Fatalf("sstoken %v seed %d lane %d: batch (%d,%v) scalar (%d,%v)",
						kind, seed, lane, dSteps[lane], dConv>>uint(lane)&1 == 1, ws, wok)
				}
			}
		}
	}
}

// TestRunRetiresLanesAtBudget forces a tiny step budget and checks the
// non-converged lanes come back with steps = maxSteps and a zero
// converged bit.
func TestRunRetiresLanesAtBudget(t *testing.T) {
	b := NewSSRmin(8, 12, Subset)
	b.SeedLanes(3)
	steps, converged := b.Run(2)
	for lane := 0; lane < Lanes; lane++ {
		ok := converged>>uint(lane)&1 == 1
		if !ok && steps[lane] != 2 {
			t.Fatalf("lane %d: not converged but steps=%d, want 2", lane, steps[lane])
		}
		if ok && steps[lane] > 2 {
			t.Fatalf("lane %d: converged with steps=%d past budget", lane, steps[lane])
		}
	}
}

// TestSeedLanesMatchesPerLane holds the node-major, transposed SeedLanes
// to the per-lane construction it replaces — SampleSSRmin/SampleSSToken
// draws from each lane's stream poked in with SetLaneState — plane for
// plane, flag row for flag row, and stream for stream. The alphabets are
// K = n+1, K exactly a power of two (the truncated K constant is zero),
// K with 41 planes, and two K past 2⁶² up to the largest K the
// constructors accept, whose digits reach bit 62: the draw bit SSRmin's
// RTS flag comes from.
func TestSeedLanesMatchesPerLane(t *testing.T) {
	var cases []struct{ n, k int }
	for _, n := range []int{3, 8, 64} {
		pow := 1 << uint(planesFor(n+1))
		if pow == n+1 {
			pow *= 2
		}
		for _, k := range []int{n + 1, pow, 1<<40 + 7, 3<<61 + 3, math.MaxInt} {
			cases = append(cases, struct{ n, k int }{n, k})
		}
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, -3} {
			b := NewSSRmin(tc.n, tc.k, Subset)
			b.SeedLanes(seed)
			ref := NewSSRmin(tc.n, tc.k, Subset)
			for lane := 0; lane < Lanes; lane++ {
				r := SeedStream(seed, lane)
				for i := 0; i < tc.n; i++ {
					ref.SetLaneState(lane, i, SampleSSRmin(&r, tc.k))
				}
				ref.lanes[lane] = r
			}
			if !slices.Equal(b.x, ref.x) || !slices.Equal(b.rts, ref.rts) || !slices.Equal(b.tra, ref.tra) {
				t.Fatalf("ssrmin n=%d K=%d seed %d: seeded planes differ from the per-lane construction", tc.n, tc.k, seed)
			}
			if b.lanes != ref.lanes {
				t.Fatalf("ssrmin n=%d K=%d seed %d: lane streams left at different positions", tc.n, tc.k, seed)
			}

			d := NewSSToken(tc.n, tc.k, Subset)
			d.SeedLanes(seed)
			dref := NewSSToken(tc.n, tc.k, Subset)
			for lane := 0; lane < Lanes; lane++ {
				r := SeedStream(seed, lane)
				for i := 0; i < tc.n; i++ {
					dref.SetLaneState(lane, i, SampleSSToken(&r, tc.k))
				}
				dref.lanes[lane] = r
			}
			if !slices.Equal(d.x, dref.x) || d.lanes != dref.lanes {
				t.Fatalf("sstoken n=%d K=%d seed %d: seeding differs from the per-lane construction", tc.n, tc.k, seed)
			}
		}
	}
}

// TestStepAfterPokeRecomputesGuards evaluates the legitimacy mask (which
// fills the guard rows), then pokes states that flip guards, then steps:
// Step must re-evaluate the guards rather than reuse the stale rows, so
// every lane still matches its scalar simulator.
func TestStepAfterPokeRecomputesGuards(t *testing.T) {
	const n, k, seed = 6, 9, 5
	alg := core.New(n, k)
	b := NewSSRmin(n, k, Subset)
	b.SeedLanes(seed)
	dalg := dijkstra.New(n, k)
	d := NewSSToken(n, k, Subset)
	d.SeedLanes(seed)

	// A poke restarts a lane's simulator from the poked configuration
	// with the same daemon, which keeps its place in the lane stream.
	sims := make([]*statemodel.Simulator[core.State], Lanes)
	dsims := make([]*statemodel.Simulator[dijkstra.State], Lanes)
	daemons := make([]statemodel.Daemon, Lanes)
	ddaemons := make([]statemodel.Daemon, Lanes)
	for lane := 0; lane < Lanes; lane++ {
		r := SeedStream(seed, lane)
		init := make(statemodel.Config[core.State], n)
		for i := range init {
			init[i] = SampleSSRmin(&r, k)
		}
		daemons[lane] = NewSubsetDaemon(&r)
		sims[lane] = statemodel.NewSimulator[core.State](alg, daemons[lane], init)

		dr := SeedStream(seed, lane)
		dinit := make(statemodel.Config[dijkstra.State], n)
		for i := range dinit {
			dinit[i] = SampleSSToken(&dr, k)
		}
		ddaemons[lane] = NewSubsetDaemon(&dr)
		dsims[lane] = statemodel.NewSimulator[dijkstra.State](dalg, ddaemons[lane], dinit)
	}

	for s := 0; s < 20; s++ {
		b.LegitMask()
		d.LegitMask()
		// Poke every lane: copy (or, on odd lanes, bump) a predecessor's
		// digit into a node, which raises or drops that node's guard.
		for lane := 0; lane < Lanes; lane++ {
			i, bump := (s+lane)%n, lane%2
			c := sims[lane].Config()
			c[i].X = (c[(i+n-1)%n].X + bump) % k
			b.SetLaneState(lane, i, c[i])
			sims[lane] = statemodel.NewSimulator[core.State](alg, daemons[lane], c)

			dc := dsims[lane].Config()
			dc[i].X = (dc[(i+n-1)%n].X + bump) % k
			d.SetLaneState(lane, i, dc[i])
			dsims[lane] = statemodel.NewSimulator[dijkstra.State](dalg, ddaemons[lane], dc)
		}
		b.Step()
		d.Step()
		for lane := 0; lane < Lanes; lane++ {
			sims[lane].Step()
			dsims[lane].Step()
			checkLaneSSRmin(t, b, lane, sims[lane].Config(), fmt.Sprintf("ssrmin step %d after poke", s))
			if got, want := d.LaneConfig(lane), dsims[lane].Config(); !got.Equal(want) {
				t.Fatalf("sstoken step %d after poke: lane %d diverged\n batch:  %v\n scalar: %v", s, lane, got, want)
			}
		}
	}
}
