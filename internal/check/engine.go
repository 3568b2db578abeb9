// The ID-space engine: every pass of the model checker — legitimate-set
// construction, no-deadlock, closure, invariant scans, and the convergence
// longest-path analysis — reimplemented over compiled transition tables
// (tables.go) and dense uint64 configuration IDs. The legitimate-set and
// no-deadlock scans shard contiguous ID ranges across a worker pool; the
// closure walk over Λ and the convergence analysis, a memoized
// depth-first search that stores no edge, are sequential. Reports are
// bit-identical to the legacy Checker passes (differential_test.go pins
// this on every seed instance, convergence_golden.json freezes the
// convergence results); the speedup comes from eliminating Decode/Encode,
// View construction and per-node map allocation from the hot path.
package check

import (
	"runtime"
	"sync/atomic"
	"unsafe"

	"ssrmin/internal/parsweep"
	"ssrmin/internal/statemodel"
)

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// chunkRange is one contiguous, 64-aligned shard of the ID space.
type chunkRange struct{ lo, hi uint64 }

// chunks shards [0, total) into 64-aligned ranges, several per worker for
// load balance.
func (e *Engine[S]) chunks() []chunkRange {
	target := uint64(e.workers * 4)
	if target < 1 {
		target = 1
	}
	step := (e.total + target - 1) / target
	step = (step + 63) &^ 63 // keep shard boundaries word-aligned
	if step == 0 {
		step = 64
	}
	var out []chunkRange
	for lo := uint64(0); lo < e.total; lo += step {
		hi := lo + step
		if hi > e.total {
			hi = e.total
		}
		out = append(out, chunkRange{lo, hi})
	}
	return out
}

// scanRange walks ids in [lo, hi) maintaining the base-q digit odometer,
// so per-ID digit extraction costs one increment instead of n divisions.
func (e *Engine[S]) scanRange(lo, hi uint64, fn func(id uint64, digits []int)) {
	digits := make([]int, e.n)
	e.digitsOf(lo, digits)
	for id := lo; id < hi; id++ {
		fn(id, digits)
		for i := 0; i < e.n; i++ {
			digits[i]++
			if digits[i] < e.q {
				break
			}
			digits[i] = 0
		}
	}
}

// LegitSet evaluates the legitimacy predicate over the full space in
// parallel and returns Λ as a bitmap. This is the only pass that decodes
// configurations (once each, into a per-worker buffer); every other engine
// pass tests Λ-membership by a single bit probe. The predicate must be
// safe for concurrent use and must not retain its argument.
func (e *Engine[S]) LegitSet(legit func(statemodel.Config[S]) bool) *IDSet {
	set := newIDSet(e.total)
	ch := e.chunks()
	counts := parsweep.Map(len(ch), e.workers, func(ci int) uint64 {
		cfg := make(statemodel.Config[S], e.n)
		var cnt uint64
		e.scanRange(ch[ci].lo, ch[ci].hi, func(id uint64, digits []int) {
			for i, d := range digits {
				cfg[i] = e.c.states[d]
			}
			if legit(cfg) {
				set.set(id)
				cnt++
			}
		})
		return cnt
	})
	for _, c := range counts {
		set.count += c
	}
	return set
}

// CheckNoDeadlock verifies in parallel that every configuration has an
// enabled process; it returns a deadlocked configuration otherwise.
func (e *Engine[S]) CheckNoDeadlock() (counterexample statemodel.Config[S], ok bool) {
	var found atomic.Uint64 // id+1 of a counterexample; 0 = none
	ch := e.chunks()
	parsweep.Map(len(ch), e.workers, func(ci int) struct{} {
		q, n := e.q, e.n
		e.scanRange(ch[ci].lo, ch[ci].hi, func(id uint64, digits []int) {
			if found.Load() != 0 {
				return
			}
			for i := 0; i < n; i++ {
				t := (digits[(i+n-1)%n]*q+digits[i])*q + digits[(i+1)%n]
				class := 0
				if i != 0 {
					class = 1
				}
				if e.rule[class][t] != 0 {
					return
				}
			}
			found.CompareAndSwap(0, id+1)
		})
		return struct{}{}
	})
	if id := found.Load(); id != 0 {
		return e.c.Decode(id - 1), false
	}
	return nil, true
}

// CheckClosure verifies that every distributed-daemon successor of every
// configuration in lam stays in lam, and reports |Λ| and the maximum
// number of simultaneously enabled processes over Λ. Λ is tiny compared to
// Γ (3nK for SSRmin), so the walk over its bitmap is sequential; each
// member costs a handful of table probes and subset additions.
func (e *Engine[S]) CheckClosure(lam *IDSet) ClosureReport[S] {
	var rep ClosureReport[S]
	rep.Legitimate = lam.Count()
	digits := make([]int, e.n)
	movers := make([]mover, 0, e.n)
	lam.ForEach(func(id uint64) bool {
		e.digitsOf(id, digits)
		movers = e.enabledMoves(digits, e.allRules, movers[:0])
		if len(movers) > rep.MaxEnabled {
			rep.MaxEnabled = len(movers)
		}
		if len(movers) > maxSubsetMoves {
			panic("check: too many enabled processes for subset enumeration")
		}
		for mask := 1; mask < 1<<uint(len(movers)); mask++ {
			var d int64
			for b := range movers {
				if mask&(1<<uint(b)) != 0 {
					d += movers[b].delta
				}
			}
			if nid := uint64(int64(id) + d); !lam.Contains(nid) {
				rep.Counterexample = e.c.Decode(id)
				rep.Successor = e.c.Decode(nid)
				return false
			}
		}
		return true
	})
	return rep
}

// ConvStats reports the cost of one convergence analysis.
type ConvStats struct {
	// Edges is the number of illegitimate→illegitimate transition-graph
	// edges (distinct successors), each generated once and never stored.
	Edges uint64
	// Layers is 1 + the longest illegitimate→illegitimate chain among the
	// configurations that cannot reach a cycle (0 when there are none).
	// It equals the frontier count of a layered Kahn peel of the same
	// graph.
	Layers int
	// BookkeepingBytes is the peak size of the pass's working memory: the
	// per-configuration marks, which become the distance array, plus the
	// capacity the DFS stack, the shared successor slab and the
	// subset-sum scratch grew to.
	BookkeepingBytes uint64
}

// CheckConvergence verifies convergence under the unfair distributed
// daemon — the transition relation restricted to Γ∖lam must be acyclic —
// and computes the exact worst-case stabilization time, with the same
// semantics as the legacy Checker.CheckConvergence. The analysis is one
// sequential memoized depth-first search that expands each illegitimate
// configuration's successors from the compiled tables exactly once and
// stores no edge; see convergence.
func (e *Engine[S]) CheckConvergence(lam *IDSet) (ConvergenceReport[S], ConvStats) {
	rep, _, stats := e.convergence(lam, e.allRules)
	if rep.Converges {
		if o := e.c.Obs; o != nil {
			o.ConvergedAt(0, rep.WorstSteps)
		}
	}
	return rep, stats
}

// Distances is CheckConvergence plus the exact worst-case steps-to-Λ of
// every configuration, keyed by ID (only nonzero distances are present),
// with the same semantics as Checker.Distances.
func (e *Engine[S]) Distances(lam *IDSet) (map[uint64]int, ConvergenceReport[S]) {
	rep, dist, _ := e.convergence(lam, e.allRules)
	out := make(map[uint64]int)
	for id, d := range dist {
		if d != 0 {
			out[uint64(id)] = int(d)
		}
	}
	return out, rep
}

// LongestRestricted computes the longest execution using only the given
// rule set, from any start (Lemma 5); ok is false if such executions can
// be infinite. Identical semantics to Checker.LongestRestricted.
func (e *Engine[S]) LongestRestricted(rules map[int]bool) (steps int, start statemodel.Config[S], ok bool) {
	var mask uint32
	for r, on := range rules {
		if on && r >= 1 && r <= 30 {
			mask |= 1 << uint(r)
		}
	}
	rep, _, _ := e.convergence(newIDSet(e.total), mask)
	if !rep.Converges {
		return 0, rep.Cycle, false
	}
	return rep.WorstSteps, rep.WorstStart, true
}

// Marks of the convergence search, one int32 per configuration, kept in
// the array that becomes the distance array when the search ends.
const (
	unvisited int32 = 0
	onStack   int32 = -1 // frame pushed, not yet closed
	cyclic    int32 = -2 // closed, reaches a cycle
	legit     int32 = -3 // in Λ
)

// A closed configuration that cannot reach a cycle is marked
// finished(dist, chain) = 2·dist + [chain = dist] ≥ 1, using
// chain ∈ {dist−1, dist}. Ordering marks orders dist first, so the
// largest mark among a set of configurations unpacks to both their
// largest dist and their largest chain.
func finished(dist, chain int32) int32 { return dist + chain + 1 }

func unpack(m int32) (dist, chain int32) {
	dist = m >> 1
	return dist, dist - 1 + m&1
}

// frame is one configuration on the DFS stack: slab[lo:hi] holds its
// successors and cur the next one to visit; best is the largest finished
// mark among the illegitimate successors visited so far (0 for none).
type frame struct {
	id          uint32
	hasSucc     bool // any successor at all, legitimate ones included
	cyc         bool // reaches a cycle
	best        int32
	lo, cur, hi int
}

// convergence is the longest-path analysis behind CheckConvergence,
// Distances and LongestRestricted, over the moves permitted by ruleMask.
// Per illegitimate configuration u it defines
//
//	dist(u)  = 0 without a successor, else 1 + max(0, max dist(v)),
//	chain(u) = 0 without an illegitimate successor, else 1 + max chain(v),
//
// over u's illegitimate successors v (legitimate ones contribute 0). A
// configuration without a permitted move is terminal with distance 0, as
// the rule-restricted analysis needs.
//
// One iterative depth-first search from every unvisited illegitimate ID in
// increasing order computes both. Each configuration's successors are
// regenerated from the compiled tables once, into a slab shared by the
// whole stack, when its frame is pushed; no edge outlives its frame. A
// successor still on the stack closes a cycle: the frame is marked, and
// the mark reaches every ancestor as it closes and every later
// configuration that reaches a marked one, so the marked set is exactly
// the configurations that can reach a cycle. Marked configurations keep
// distance 0 and Cycle decodes the smallest marked ID.
//
// The marks take 4 bytes per configuration, beside lam. The stack is as
// deep as the longest path the search follows, at most WorstSteps+1
// frames when the graph converges.
func (e *Engine[S]) convergence(lam *IDSet, ruleMask uint32) (ConvergenceReport[S], []int32, ConvStats) {
	var rep ConvergenceReport[S]
	total := e.total
	mark := make([]int32, total)
	lam.ForEach(func(id uint64) bool {
		mark[id] = legit
		return true
	})

	var (
		stack  []frame
		slab   []uint32
		sums   []int64
		movers = make([]mover, 0, e.n)
		digits = make([]int, e.n)

		edges    uint64
		maxChain int32 = -1
		worst    int32
		worstID  uint64
		cycleID  = total
	)
	for root := uint64(0); root < total; root++ {
		if mark[root] != unvisited {
			continue
		}
		v := root
	descend:
		for {
			e.digitsOf(v, digits)
			movers = e.enabledMoves(digits, ruleMask, movers[:0])
			lo := len(slab)
			slab, sums = distinctSuccessors(v, movers, slab, sums)
			mark[v] = onStack
			stack = append(stack, frame{id: uint32(v), hasSucc: len(slab) > lo, lo: lo, cur: lo, hi: len(slab)})

			for len(stack) > 0 {
				f := &stack[len(stack)-1]
				for f.cur < f.hi {
					s := uint64(slab[f.cur])
					f.cur++
					m := mark[s]
					if m == legit {
						continue // contributes distance 0 and no edge
					}
					edges++
					switch {
					case m == unvisited:
						v = s
						continue descend
					case m < 0: // on the stack, or reaches a cycle
						f.cyc = true
					default:
						f.best = max(f.best, m)
					}
				}

				// Every successor is folded: close f.
				id := uint64(f.id)
				rep.Illegitimate++
				m := cyclic
				if f.cyc {
					cycleID = min(cycleID, id)
				} else {
					var d, chain int32
					if f.best > 0 {
						d, chain = unpack(f.best)
						d, chain = d+1, chain+1
					} else if f.hasSucc {
						d = 1
					}
					m = finished(d, chain)
					maxChain = max(maxChain, chain)
					if d > worst || (d == worst && id < worstID) {
						worst, worstID = d, id
					}
				}
				mark[id] = m
				slab = slab[:f.lo]
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					if p := &stack[len(stack)-1]; m == cyclic {
						p.cyc = true
					} else {
						p.best = max(p.best, m)
					}
				}
			}
			break // stack empty: on to the next root
		}
	}

	stats := ConvStats{
		Edges:  edges,
		Layers: int(maxChain + 1),
		BookkeepingBytes: 4*uint64(len(mark)) + uint64(cap(stack))*uint64(unsafe.Sizeof(frame{})) +
			4*uint64(cap(slab)) + 8*uint64(cap(sums)),
	}
	// The marks become the distances.
	for id, m := range mark {
		var d int32
		if m > 0 {
			d, _ = unpack(m)
		}
		mark[id] = d
	}
	if cycleID < total {
		rep.Cycle = e.c.Decode(cycleID)
		return rep, mark, stats
	}
	rep.Converges = true
	rep.WorstSteps = int(worst)
	if worst > 0 {
		rep.WorstStart = e.c.Decode(worstID)
	}
	return rep, mark, stats
}
