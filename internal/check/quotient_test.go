package check

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// TestTableStride pins the value-shift stride found in the compiled
// tables: SSRmin's X-major AllStates put the counter shift at stride 4
// (K = q/4 orbit members), SSToken's bare counters at stride 1.
func TestTableStride(t *testing.T) {
	for _, nk := range [][2]int{{3, 4}, {4, 5}, {5, 6}} {
		a := core.New(nk[0], nk[1])
		e, err := New[core.State](a, 0).Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		if s := e.tableStride(); s != 4 {
			t.Errorf("%s: stride %d, want 4", a.Name(), s)
		}
	}
	for _, n := range []int{3, 4, 5} {
		a := dijkstra.New(n, n+1)
		e, err := New[dijkstra.State](a, 0).Compile(1)
		if err != nil {
			t.Fatal(err)
		}
		if s := e.tableStride(); s != 1 {
			t.Errorf("%s: stride %d, want 1", a.Name(), s)
		}
	}
}

// TestQuotientOrder checks that the convergence analyses search the
// orbits of the full counter shift when Λ is invariant: K = the counter
// range, |Γ|/K orbits.
func TestQuotientOrder(t *testing.T) {
	a := core.New(4, 5)
	c := New[core.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, stats := e.CheckConvergence(e.LegitSet(a.Legitimate))
	if !rep.Converges || stats.ShiftOrder != 5 || stats.Orbits != e.NumConfigs()/5 {
		t.Fatalf("converges %v, K = %d over %d orbits; want K = 5 over %d",
			rep.Converges, stats.ShiftOrder, stats.Orbits, e.NumConfigs()/5)
	}
}

// pinnedBottom is SSToken whose bottom process skips counter value 0: its
// command compares the new counter against a constant, so no value shift
// commutes with its tables.
type pinnedBottom struct{ *dijkstra.Algorithm }

func (p pinnedBottom) Name() string { return "pinned-" + p.Algorithm.Name() }

func (p pinnedBottom) Apply(v statemodel.View[dijkstra.State], r int) dijkstra.State {
	next := p.Algorithm.Apply(v, r)
	if v.Bottom() && next.X == 0 {
		next.X = 1
	}
	return next
}

// TestQuotientTrivialWithoutSymmetry runs the K = 1 case of the quotient
// on an algorithm without a value-shift symmetry, and holds it to the
// legacy walker.
func TestQuotientTrivialWithoutSymmetry(t *testing.T) {
	a := pinnedBottom{dijkstra.New(4, 6)}
	c := New[dijkstra.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	if s := e.tableStride(); s != e.q {
		t.Fatalf("stride %d on an asymmetric algorithm; want q = %d", s, e.q)
	}
	_, stats := e.CheckConvergence(e.LegitSet(a.Legitimate))
	if stats.ShiftOrder != 1 || stats.Orbits != e.NumConfigs() {
		t.Fatalf("K = %d over %d orbits; want the trivial quotient", stats.ShiftOrder, stats.Orbits)
	}
	diffOne[dijkstra.State](t, a, a.Legitimate, 2)
}

// TestQuotientTrivialOnAsymmetricLambda drops one member from SSRmin's Λ,
// which breaks Λ's invariance under the counter shift: the analyses must
// fall back to K = 1 and still agree with the legacy walker and the
// brute-force cycle-witness oracle. TestEngineCycleWitness covers the
// K = 1 fallback on a Λ' that leaves cycles.
func TestQuotientTrivialOnAsymmetricLambda(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	full := e.LegitSet(a.Legitimate)
	var dropped uint64
	full.ForEach(func(id uint64) bool {
		dropped = id
		return false
	})
	lam := newIDSet(e.NumConfigs())
	full.ForEach(func(id uint64) bool {
		if id != dropped {
			lam.set(id)
			lam.count++
		}
		return true
	})
	legit := func(cfg statemodel.Config[core.State]) bool {
		return a.Legitimate(cfg) && c.Encode(cfg) != dropped
	}
	if qt := e.quotientFor(lam); qt.k != 1 {
		t.Fatalf("K = %d for a Λ that is not shift-invariant; want 1", qt.k)
	}

	edist, erep := e.Distances(lam)
	ldist, lrep := c.Distances(legit)
	if !erep.Converges || !lrep.Converges || erep.WorstSteps != lrep.WorstSteps ||
		erep.Illegitimate != lrep.Illegitimate || !erep.WorstStart.Equal(lrep.WorstStart) {
		t.Fatalf("convergence: engine %+v, legacy %+v", erep, lrep)
	}
	if !reflect.DeepEqual(edist, ldist) {
		t.Fatalf("Distances maps differ: engine %d entries, legacy %d", len(edist), len(ldist))
	}

	// Losing a member breaks the circulation through Λ, the only cycle,
	// so the oracle must find nothing that reaches a cycle either.
	if _, marked := smallestCycleReacher(c, lam, nil); marked != 0 {
		t.Fatalf("oracle: %d configurations reach a cycle outside Λ'", marked)
	}
}

// stutter is SSToken plus a rule 2 that a disabled non-bottom process
// whose successor's counter is one above its own may fire without
// changing state. The guard compares counters only relative to each
// other, so the counter shift stays a symmetry.
type stutter struct{ *dijkstra.Algorithm }

func (p stutter) Name() string { return "stutter-" + p.Algorithm.Name() }
func (p stutter) Rules() int   { return 2 }

func (p stutter) EnabledRule(v statemodel.View[dijkstra.State]) int {
	if r := p.Algorithm.EnabledRule(v); r != 0 {
		return r
	}
	if !v.Bottom() && v.Succ.X == (v.Self.X+1)%p.K() {
		return 2
	}
	return 0
}

func (p stutter) Apply(v statemodel.View[dijkstra.State], r int) dijkstra.State {
	if r == 2 {
		return v.Self
	}
	return p.Algorithm.Apply(v, r)
}

// TestQuotientStutterMove covers movers that keep their state: each makes
// its configuration a successor of itself, on the quotient too. The cycle
// witness must match the oracle, and the edge count the distinct
// illegitimate successors the legacy walker enumerates.
func TestQuotientStutterMove(t *testing.T) {
	a := stutter{dijkstra.New(4, 5)}
	c := New[dijkstra.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	lam := e.LegitSet(a.Legitimate)
	want, marked := smallestCycleReacher(c, lam, nil)
	if marked == 0 {
		t.Fatal("no configuration reaches a stutter loop")
	}
	var edges uint64
	for id := uint64(0); id < e.NumConfigs(); id++ {
		if lam.Contains(id) {
			continue
		}
		seen := map[uint64]bool{}
		c.Successors(c.Decode(id), nil, func(next statemodel.Config[dijkstra.State]) bool {
			if nid := c.Encode(next); !lam.Contains(nid) && !seen[nid] {
				seen[nid] = true
				edges++
			}
			return true
		})
	}
	rep, stats := e.CheckConvergence(lam)
	if stats.ShiftOrder != 5 || stats.Edges != edges {
		t.Fatalf("K = %d, %d edges; want K = 5 and %d edges", stats.ShiftOrder, stats.Edges, edges)
	}
	if rep.Converges || rep.Illegitimate != e.NumConfigs()-lam.Count() || !rep.Cycle.Equal(c.Decode(want)) {
		t.Fatalf("converges %v, |Γ∖Λ| %d, witness %v; want a cycle, %d and %v",
			rep.Converges, rep.Illegitimate, rep.Cycle, e.NumConfigs()-lam.Count(), c.Decode(want))
	}
}

// TestSSRminN6K7Engine is the exhaustive n=6, K=7 run: 28⁶ = 481,890,304
// configurations, searched as 68,841,472 value-shift orbits. It pins the
// results first measured with the unreduced search. It takes a few
// minutes and ~600 MiB, so it only runs when SSRMIN_EXHAUSTIVE_N6 is set.
func TestSSRminN6K7Engine(t *testing.T) {
	if os.Getenv("SSRMIN_EXHAUSTIVE_N6") == "" {
		t.Skip("set SSRMIN_EXHAUSTIVE_N6=1 to run the 481.9M-configuration exhaustive check")
	}
	a := core.New(6, 7)
	c := New[core.State](a, 600_000_000)
	e, err := c.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumConfigs() != 481_890_304 {
		t.Fatalf("|Γ| = %d, want 481890304", e.NumConfigs())
	}
	lam := e.LegitSet(a.Legitimate)
	if want := uint64(3 * 6 * 7); lam.Count() != want {
		t.Fatalf("|Λ| = %d, want %d", lam.Count(), want)
	}
	if cex, ok := e.CheckNoDeadlock(); !ok {
		t.Fatalf("deadlock at %v", cex)
	}
	steps, from, ok := e.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	if !ok || steps != 11 {
		t.Fatalf("quiet run %d from %v (finite %v); want 11", steps, from, ok)
	}
	conv, stats := e.CheckConvergence(lam)
	if !conv.Converges {
		t.Fatalf("cycle at %v", conv.Cycle)
	}
	if conv.WorstSteps != 120 || a.ConvergenceStepBound() != 2272 {
		t.Fatalf("worst %d ≤ %d; want 120 ≤ 2272", conv.WorstSteps, a.ConvergenceStepBound())
	}
	if stats.Edges != 23_848_724_732 || stats.Layers != 120 {
		t.Fatalf("%d edges, %d layers; want 23848724732 and 120", stats.Edges, stats.Layers)
	}
	if got := fmt.Sprint(conv.WorstStart); got != "[0.0.0 4.0.0 3.0.0 2.0.0 1.0.0 0.0.0]" {
		t.Fatalf("worst start %s", got)
	}
	t.Logf("n=6 K=7: K=%d over %d orbits, |Γ∖Λ|=%d, bookkeeping=%.1f MiB",
		stats.ShiftOrder, stats.Orbits, conv.Illegitimate, float64(stats.BookkeepingBytes)/(1<<20))
}
