package check

import (
	"os"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

func TestCompileRequiresPositionUniform(t *testing.T) {
	// An algorithm that never declared the marker must be rejected.
	c := New[dijkstra.State](plainSpace{dijkstra.New(3, 4)}, 0)
	if _, err := c.Compile(1); err == nil {
		t.Fatal("Compile accepted an algorithm without PositionUniform")
	}
}

// plainSpace strips all optional interfaces off a Space.
type plainSpace struct{ inner Space[dijkstra.State] }

func (p plainSpace) Name() string { return p.inner.Name() }
func (p plainSpace) N() int       { return p.inner.N() }
func (p plainSpace) Rules() int   { return p.inner.Rules() }
func (p plainSpace) EnabledRule(v statemodel.View[dijkstra.State]) int {
	return p.inner.EnabledRule(v)
}
func (p plainSpace) Apply(v statemodel.View[dijkstra.State], r int) dijkstra.State {
	return p.inner.Apply(v, r)
}
func (p plainSpace) AllStates() []dijkstra.State { return p.inner.AllStates() }

func TestEngineLegitSetMatchesPredicate(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	e, err := c.Compile(3)
	if err != nil {
		t.Fatal(err)
	}
	lam := e.LegitSet(a.Legitimate)
	if lam.Count() != 36 {
		t.Fatalf("|Λ| = %d, want 36", lam.Count())
	}
	// Bitmap membership must agree with the predicate on every ID, and
	// ForEach must visit exactly the members in order.
	var visited []uint64
	lam.ForEach(func(id uint64) bool {
		visited = append(visited, id)
		return true
	})
	vi := 0
	c.ForAll(func(cfg statemodel.Config[core.State]) bool {
		id := c.Encode(cfg)
		want := a.Legitimate(cfg)
		if lam.Contains(id) != want {
			t.Fatalf("membership mismatch at id %d", id)
		}
		if want {
			if vi >= len(visited) || visited[vi] != id {
				t.Fatalf("ForEach order broken at %d", id)
			}
			vi++
		}
		return true
	})
	if vi != len(visited) {
		t.Fatalf("ForEach visited %d extra ids", len(visited)-vi)
	}
}

func TestEngineTriples(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	e, err := c.Compile(1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := statemodel.Config[core.State]{{X: 1}, {X: 2, RTS: true}, {X: 3, TRA: true}}
	tr := e.Triples(c.Encode(cfg), nil)
	if len(tr) != 3 {
		t.Fatalf("triples = %d, want 3", len(tr))
	}
	idx := map[core.State]int{}
	for i, s := range a.AllStates() {
		idx[s] = i
	}
	for i := 0; i < 3; i++ {
		v := cfg.View(i)
		want := statemodel.TripleIndex(len(idx), idx[v.Pred], idx[v.Self], idx[v.Succ])
		if int(tr[i]) != want {
			t.Fatalf("triple[%d] = %d, want %d", i, tr[i], want)
		}
	}
}

func TestEngineDetectsCycle(t *testing.T) {
	// With an empty legitimate set and all rules permitted, token
	// circulation never terminates: the engine must report a cycle, just
	// like the legacy path.
	a := dijkstra.New(3, 4)
	c := New[dijkstra.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	rep, _ := e.CheckConvergence(newIDSet(e.NumConfigs()))
	if rep.Converges {
		t.Fatal("engine missed the infinite circulation cycle")
	}
	if rep.Cycle == nil {
		t.Fatal("no cycle witness returned")
	}
	legacy := c.CheckConvergence(func(statemodel.Config[dijkstra.State]) bool { return false })
	if legacy.Converges {
		t.Fatal("legacy missed the cycle too?")
	}
}

// smallestCycleReacher is the brute-force oracle for the cycle witness: on
// the graph of Γ∖lam under the permitted rules (nil means all), built from
// the legacy Checker's successor relation, it marks every configuration
// that lies on a cycle (reaches itself in one step or more), closes the
// marks backwards over predecessors, and returns the smallest marked ID
// and the number marked.
func smallestCycleReacher[S comparable](c *Checker[S], lam *IDSet, rules map[int]bool) (smallest, marked uint64) {
	total := c.NumConfigs()
	succ := make([][]uint64, total)
	for id := uint64(0); id < total; id++ {
		if lam.Contains(id) {
			continue
		}
		c.Successors(c.Decode(id), rules, func(next statemodel.Config[S]) bool {
			if nid := c.Encode(next); !lam.Contains(nid) {
				succ[id] = append(succ[id], nid)
			}
			return true
		})
	}
	reach := make([]bool, total)
	for w := uint64(0); w < total; w++ {
		seen := make([]bool, total)
		queue := append([]uint64(nil), succ[w]...)
		for len(queue) > 0 && !reach[w] {
			u := queue[0]
			queue = queue[1:]
			if seen[u] {
				continue
			}
			seen[u] = true
			reach[w] = u == w
			queue = append(queue, succ[u]...)
		}
	}
	for changed := true; changed; {
		changed = false
		for u := uint64(0); u < total; u++ {
			for _, v := range succ[u] {
				if !reach[u] && reach[v] {
					reach[u], changed = true, true
				}
			}
		}
	}
	smallest = total
	for u := total; u > 0; u-- {
		if reach[u-1] {
			smallest = u - 1
			marked++
		}
	}
	return smallest, marked
}

// TestEngineCycleWitness pins the cycle witness to the brute-force oracle
// on spaces where configurations that can reach a cycle coexist with ones
// that cannot: rep.Cycle must decode the smallest ID that can reach one.
func TestEngineCycleWitness(t *testing.T) {
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	e, err := c.Compile(2)
	if err != nil {
		t.Fatal(err)
	}
	lam := e.LegitSet(a.Legitimate)

	// Λ' holds every third illegitimate configuration: the circulation in
	// Λ survives as a cycle, and part of the space still drains into Λ'.
	thirds := newIDSet(e.NumConfigs())
	illegit := e.NumConfigs()
	for id := uint64(0); id < e.NumConfigs(); id += 3 {
		if !lam.Contains(id) {
			thirds.set(id)
			illegit--
		}
	}
	want, marked := smallestCycleReacher(c, thirds, nil)
	if marked == 0 || marked == illegit {
		t.Fatalf("Λ' case: %d of %d configurations reach a cycle; want both kinds", marked, illegit)
	}
	rep, stats := e.CheckConvergence(thirds)
	if stats.ShiftOrder != 1 {
		t.Fatalf("Λ' case: K = %d; Λ' is not shift-invariant, want 1", stats.ShiftOrder)
	}
	if rep.Converges || rep.Cycle == nil || !rep.Cycle.Equal(c.Decode(want)) {
		t.Fatalf("Λ' case: converges %v, witness %v; want the smallest cycle-reaching ID %d = %v",
			rep.Converges, rep.Cycle, want, c.Decode(want))
	}

	// Rules {1, 2, 3} over Λ = ∅: primary tokens circulate forever from
	// some starts while others end without an enabled permitted move.
	rules := map[int]bool{core.RuleReadySecondary: true, core.RuleSendPrimary: true, core.RuleRecvSecondary: true}
	want, marked = smallestCycleReacher(c, newIDSet(e.NumConfigs()), rules)
	if marked == 0 || marked == e.NumConfigs() {
		t.Fatalf("{1,2,3} case: %d of %d configurations reach a cycle; want both kinds", marked, e.NumConfigs())
	}
	if _, _, stats := e.convergence(new(IDSet), 1<<core.RuleReadySecondary|1<<core.RuleSendPrimary|1<<core.RuleRecvSecondary); stats.ShiftOrder != 4 {
		t.Fatalf("{1,2,3} case: K = %d, want the counter shift's 4", stats.ShiftOrder)
	}
	steps, start, ok := e.LongestRestricted(rules)
	if ok || steps != 0 || start == nil || !start.Equal(c.Decode(want)) {
		t.Fatalf("LongestRestricted{1,2,3} = (%d, %v, %v); want (0, %v, false)", steps, start, ok, c.Decode(want))
	}
}

func TestEngineWorkerCounts(t *testing.T) {
	// The analysis must be worker-count invariant.
	a := core.New(3, 4)
	c := New[core.State](a, 0)
	var worst []int
	for _, w := range []int{1, 2, 7} {
		e, err := c.Compile(w)
		if err != nil {
			t.Fatal(err)
		}
		lam := e.LegitSet(a.Legitimate)
		rep, _ := e.CheckConvergence(lam)
		if !rep.Converges {
			t.Fatalf("workers=%d: no convergence", w)
		}
		worst = append(worst, rep.WorstSteps)
	}
	if worst[0] != 16 || worst[1] != 16 || worst[2] != 16 {
		t.Fatalf("worst steps varied with workers: %v", worst)
	}
}

// TestSSRminN5K6Engine is the headline new instance: the exhaustive
// n=5, K=6 run (24⁵ ≈ 7.96M configurations) enabled by the compiled
// engine. It takes a few seconds and a few tens of MiB, but it only runs
// when SSRMIN_EXHAUSTIVE_N5 is set (make modelcheck-n5 / CI soak).
func TestSSRminN5K6Engine(t *testing.T) {
	if os.Getenv("SSRMIN_EXHAUSTIVE_N5") == "" {
		t.Skip("set SSRMIN_EXHAUSTIVE_N5=1 to run the 7.96M-configuration exhaustive check")
	}
	a := core.New(5, 6)
	c := New[core.State](a, 0)
	e, err := c.Compile(0)
	if err != nil {
		t.Fatal(err)
	}
	lam := e.LegitSet(a.Legitimate)
	if want := uint64(3 * 5 * 6); lam.Count() != want {
		t.Fatalf("|Λ| = %d, want %d", lam.Count(), want)
	}
	if cex, ok := e.CheckNoDeadlock(); !ok {
		t.Fatalf("deadlock at %v", cex)
	}
	rep := e.CheckClosure(lam)
	if rep.Counterexample != nil || rep.MaxEnabled != 1 {
		t.Fatalf("closure: %+v", rep)
	}
	conv, stats := e.CheckConvergence(lam)
	if !conv.Converges {
		t.Fatalf("cycle at %v", conv.Cycle)
	}
	if conv.WorstSteps > a.ConvergenceStepBound() {
		t.Fatalf("worst %d exceeds budget %d", conv.WorstSteps, a.ConvergenceStepBound())
	}
	t.Logf("n=5 K=6: worst=%d steps, |Γ∖Λ|=%d, edges=%d, layers=%d, bookkeeping=%.1f MiB",
		conv.WorstSteps, conv.Illegitimate, stats.Edges, stats.Layers,
		float64(stats.BookkeepingBytes)/(1<<20))
}
