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
//
// The convergence analysis searches orbits of the value shift σ, not Γ.
// It is sound for three reasons. First, σ commutes with the tables
// (tables.go checks this entry by entry), so it maps every transition
// u → v onto σ(u) → σ(v): the transition graph is σ-equivariant. Second,
// σ maps Λ onto Λ, which quotientFor checks over Λ's members before it
// uses σ. Third, σ and its powers move every digit, so no configuration is
// fixed and every orbit has exactly K members. Distances, the ability to
// reach a cycle and the number of distinct successors are therefore the
// same for all members of an orbit, and the orbit counts times K are the
// counts over Γ. Rotating the ring is no such symmetry: the bottom process
// P0 has its own table, so a rotated configuration generally has other
// moves. The closure, no-deadlock and Λ scans still walk all of Γ. The Λ
// scan in particular must, because the invariance check reads the Λ it
// builds.
package check

import (
	"math/bits"
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
//
// The scan stays over all of Γ, not over value-shift orbits: the
// convergence analysis only quotients by a shift after checking that it
// maps this Λ onto itself, and a scan of canonical members alone would
// make that check vacuous.
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
		movers = e.enabledMoves(digits, e.allRules, e.pow, movers[:0])
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
	// edges (distinct successors) over all of Γ. The search generates each
	// orbit's edges once and stores none; every member of an orbit has as
	// many, so the count is ShiftOrder × the orbit edges.
	Edges uint64
	// Layers is 1 + the longest illegitimate→illegitimate chain among the
	// configurations that cannot reach a cycle (0 when there are none).
	// It equals the frontier count of a layered Kahn peel of the same
	// graph.
	Layers int
	// ShiftOrder is the order K of the value-shift group the search
	// quotiented Γ by, so every orbit has K members. It is 1 when the
	// tables or Λ admit no shift but the identity.
	ShiftOrder uint64
	// Orbits is the number of orbits the search ranged over, |Γ|/K.
	Orbits uint64
	// BookkeepingBytes is the peak size of the pass's working memory: the
	// per-orbit marks, the orbit copy of Λ (when K > 1), and the capacity
	// the DFS stack, the shared successor slab and the subset-sum scratch
	// grew to.
	BookkeepingBytes uint64
}

// CheckConvergence verifies convergence under the unfair distributed
// daemon — the transition relation restricted to Γ∖lam must be acyclic —
// and computes the exact worst-case stabilization time, with the same
// semantics as the legacy Checker.CheckConvergence. The analysis is one
// sequential memoized depth-first search over the value-shift orbits of
// Γ∖lam that expands each orbit's successors from the compiled tables
// exactly once and stores no edge; see convergence.
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
	rep, om, _ := e.convergence(lam, e.allRules)
	out := make(map[uint64]int)
	for id, d := range e.fullDistances(om) {
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
	rep, _, _ := e.convergence(new(IDSet), mask) // Λ = ∅
	if !rep.Converges {
		return 0, rep.Cycle, false
	}
	return rep.WorstSteps, rep.WorstStart, true
}

// quotient is the orbit space of the value shift σ that adds the stride s
// to every state index, mod q (tables.go explains when σ is a symmetry).
// σ moves every digit, so σ^j for 0 < j < k fixes no configuration: the
// action is free and every orbit has exactly k = q/s members. Exactly one
// member of an orbit has its position-0 digit d0 below s. That canonical
// member identifies the orbit by d0 + s·(id/q), which has the place
// values 1, s, s·q, s·q², … With s = q (k = 1) orbit IDs are
// configuration IDs.
type quotient struct {
	q, s  int
	k     uint64
	pow   []uint64 // place value of each position in an orbit ID
	fpow  []uint64 // place value of each position in a configuration ID
	total uint64   // number of orbits, |Γ|/k
}

// quotientFor returns the quotient a convergence search over Γ∖lam may
// use: the tables' stride when lam is invariant under its shift, else the
// trivial one.
func (e *Engine[S]) quotientFor(lam *IDSet) quotient {
	s := e.tableStride()
	if s < e.q && !e.shiftInvariant(lam, s) {
		s = e.q
	}
	k := uint64(e.q / s)
	qt := quotient{q: e.q, s: s, k: k, pow: make([]uint64, e.n), fpow: e.pow, total: e.total / k}
	qt.pow[0] = 1
	for i := 1; i < e.n; i++ {
		qt.pow[i] = uint64(s) * e.pow[i-1]
	}
	return qt
}

// digitsOf writes the digits of orbit oid's canonical member into buf,
// with 32-bit divisions like Engine.digitsOf.
func (qt *quotient) digitsOf(oid uint64, buf []int) {
	s, q, x := uint32(qt.s), uint32(qt.q), uint32(oid)
	buf[0] = int(x % s)
	x /= s
	for i := 1; i < len(buf); i++ {
		buf[i] = int(x % q)
		x /= q
	}
}

// member returns the ID of the configuration whose digits are those given
// plus c, mod q.
func (qt *quotient) member(digits []int, c int) uint64 {
	var id uint64
	for i, d := range digits {
		id += uint64((d+c)%qt.q) * qt.fpow[i]
	}
	return id
}

// smallestMember returns the smallest configuration ID in orbit oid. The
// top position has the largest place value and σ moves it through every
// residue of its class mod s, so the smallest member is the one whose top
// digit is below s. digits is scratch.
func (qt *quotient) smallestMember(oid uint64, digits []int) uint64 {
	qt.digitsOf(oid, digits)
	top := digits[len(digits)-1]
	return qt.member(digits, (qt.q-top+top%qt.s)%qt.q)
}

// project maps lam, which must be σ-invariant, onto the orbit space.
func (qt *quotient) project(lam *IDSet) *IDSet {
	if qt.k == 1 {
		return lam
	}
	out := newIDSet(qt.total)
	q, s := uint64(qt.q), uint64(qt.s)
	lam.ForEach(func(id uint64) bool {
		if d0 := id % q; d0 < s { // the canonical member
			out.set(d0 + s*(id/q))
			out.count++
		}
		return true
	})
	return out
}

// orbitMarks is what a convergence search leaves behind: its quotient and
// one closing mark per orbit.
type orbitMarks struct {
	qt   quotient
	mark []int32
}

// fullDistances expands a search's orbit marks into the exact distance of
// every configuration of Γ, indexed by ID: all members of an orbit share
// its distance, and configurations that are legitimate or reach a cycle
// get 0. This is the only O(|Γ|) step of a convergence analysis, and only
// Distances pays for it.
func (e *Engine[S]) fullDistances(om orbitMarks) []int32 {
	qt := &om.qt
	dist := make([]int32, e.total)
	digits := make([]int, e.n)
	for oid, m := range om.mark {
		if m <= 0 {
			continue
		}
		d, _ := unpack(m)
		qt.digitsOf(uint64(oid), digits)
		for c := 0; c < qt.q; c += qt.s {
			dist[qt.member(digits, c)] = d
		}
	}
	return dist
}

// expander generates the distributed-daemon successors of orbits.
type expander[S comparable] struct {
	e           *Engine[S]
	qt          *quotient
	ruleMask    uint32
	digits      []int
	movers      []mover
	sums, ssums []int64 // subset sums of the plain and the shifted deltas
}

// successors appends one orbit ID per distinct successor configuration of
// orbit v's canonical member u, over every nonempty subset of its
// permitted movers (the distributed daemon's choices).
//
// Each mover rewrites only its own digit, so distinct subsets of the
// movers that change state reach distinct configurations. A mover whose
// rule keeps its state reaches nothing new on its own account but makes u
// a successor of itself. Subsets without P0 keep P0's digit below s, so
// their successors are canonical: u's orbit ID plus a subset sum of the
// movers' deltas. Every subset with P0 leaves P0 in the same new state t0,
// so subtracting c = t0 − t0 mod s from every digit canonicalises all of
// them at once. A shifted base (u after P0's move, shifted) and shifted
// deltas, built once per frame, keep each successor to one addition.
//
// Two of these configurations may lie in one orbit. They stay separate
// entries: Edges counts configurations, and visiting an orbit twice
// changes no mark.
func (x *expander[S]) successors(v uint64, buf []uint32) []uint32 {
	qt, d := x.qt, x.digits
	q, s, n := qt.q, qt.s, len(d)
	qt.digitsOf(v, d)
	movers := x.e.enabledMoves(d, x.ruleMask, qt.pow, x.movers[:0])
	x.movers = movers
	if len(movers) > maxSubsetMoves {
		panic("check: too many enabled processes for subset enumeration")
	}
	moves := movers[:0] // filtered in place: the movers other than P0 that change state
	stay, t0 := false, -1
	for _, mv := range movers {
		switch {
		case mv.delta == 0:
			stay = true
		case mv.pos == 0:
			t0 = mv.to
		default:
			moves = append(moves, mv)
		}
	}
	subsets := 1 << uint(len(moves))
	if len(x.sums) < subsets {
		x.sums, x.ssums = make([]int64, subsets), make([]int64, subsets)
	}

	sums := x.sums
	if stay {
		buf = append(buf, uint32(v))
	}
	for mask := 1; mask < subsets; mask++ {
		mv := moves[bits.TrailingZeros32(uint32(mask))]
		sums[mask] = sums[mask&(mask-1)] + mv.delta
		buf = append(buf, uint32(int64(v)+sums[mask]))
	}
	if t0 < 0 {
		return buf
	}

	c := t0 - t0%s
	base, ssums := int64(v)+int64(t0-d[0]), sums
	if c != 0 {
		base = int64(t0 - c)
		for i := 1; i < n; i++ {
			base += int64((d[i]-c+q)%q) * int64(qt.pow[i])
		}
		ssums = x.ssums
		for mask := 1; mask < subsets; mask++ {
			mv := moves[bits.TrailingZeros32(uint32(mask))]
			delta := (mv.to-c+q)%q - (d[mv.pos]-c+q)%q
			ssums[mask] = ssums[mask&(mask-1)] + int64(delta)*int64(qt.pow[mv.pos])
		}
	}
	for mask := 0; mask < subsets; mask++ {
		buf = append(buf, uint32(base+ssums[mask]))
	}
	return buf
}

// Marks of the convergence search, one int32 per orbit, kept in the array
// that fullDistances expands when distances are asked for.
const (
	unvisited int32 = 0
	onStack   int32 = -1 // frame pushed, not yet closed
	cyclic    int32 = -2 // closed, reaches a cycle
	legit     int32 = -3 // in Λ
)

// A closed orbit that cannot reach a cycle is marked finished(dist, chain)
// = 2·dist + [chain = dist] ≥ 1, using chain ∈ {dist−1, dist}. Ordering
// marks orders dist first, so the largest mark among a set of orbits
// unpacks to both their largest dist and their largest chain.
func finished(dist, chain int32) int32 { return dist + chain + 1 }

func unpack(m int32) (dist, chain int32) {
	dist = m >> 1
	return dist, dist - 1 + m&1
}

// frame is one orbit on the DFS stack: slab[lo:hi] holds its successors
// and cur the next one to visit; best is the largest finished mark among
// the illegitimate successors visited so far (0 for none).
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
// The search runs over the orbits of the value shift σ (see quotient; the
// file comment says why that is sound). Every path lifts from an orbit to
// a path of the same length from each of its members, and a cycle among
// orbits lifts to a cycle in Γ (follow it k times), so members share
// dist, chain and the ability to reach a cycle. quotientFor falls back to
// k = 1, the plain search over Γ, when σ is no symmetry; it is the same
// code.
//
// One iterative depth-first search from every unvisited illegitimate
// orbit in increasing order computes both. Each orbit's successors are
// regenerated from the compiled tables once, into a slab shared by the
// whole stack, when its frame is pushed; no edge outlives its frame. A
// successor still on the stack closes a cycle: the frame is marked, and
// the mark reaches every ancestor as it closes and every later orbit that
// reaches a marked one, so the marked set is exactly the orbits that can
// reach a cycle.
//
// The reports are those of the search over Γ. Illegitimate and Edges are
// k × the orbit counts; WorstSteps and Layers carry over unchanged.
// WorstStart decodes the smallest member of the worst orbits and Cycle
// the smallest member of the marked ones; marked configurations keep
// distance 0.
//
// The marks take 4 bytes per orbit, beside lam and its orbit copy. The
// stack is as deep as the longest path the search follows, at most
// WorstSteps+1 frames when the graph converges.
func (e *Engine[S]) convergence(lam *IDSet, ruleMask uint32) (ConvergenceReport[S], orbitMarks, ConvStats) {
	var rep ConvergenceReport[S]
	qt := e.quotientFor(lam)
	olam := qt.project(lam)
	total := qt.total
	mark := make([]int32, total)
	olam.ForEach(func(id uint64) bool {
		mark[id] = legit
		return true
	})

	x := expander[S]{e: e, qt: &qt, ruleMask: ruleMask, digits: make([]int, e.n)}
	var (
		stack  []frame
		slab   []uint32
		digits = make([]int, e.n)

		edges, closed uint64
		maxChain      int32 = -1
		worst         int32
		worstID       = e.total
		cycleID       = e.total
	)
	for root := uint64(0); root < total; root++ {
		if mark[root] != unvisited {
			continue
		}
		v := root
	descend:
		for {
			lo := len(slab)
			slab = x.successors(v, slab)
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
				oid := uint64(f.id)
				closed++
				m := cyclic
				if f.cyc {
					cycleID = min(cycleID, qt.smallestMember(oid, digits))
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
					if d > 0 && d >= worst {
						id := qt.smallestMember(oid, digits)
						if d > worst || id < worstID {
							worst, worstID = d, id
						}
					}
				}
				mark[oid] = m
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
		Edges:      qt.k * edges,
		Layers:     int(maxChain + 1),
		ShiftOrder: qt.k,
		Orbits:     total,
		BookkeepingBytes: 4*uint64(len(mark)) + uint64(cap(stack))*uint64(unsafe.Sizeof(frame{})) +
			4*uint64(cap(slab)) + 8*uint64(cap(x.sums)+cap(x.ssums)),
	}
	if olam != lam {
		stats.BookkeepingBytes += 8 * uint64(len(olam.words))
	}
	rep.Illegitimate = qt.k * closed
	om := orbitMarks{qt: qt, mark: mark}
	if cycleID < e.total {
		rep.Cycle = e.c.Decode(cycleID)
		return rep, om, stats
	}
	rep.Converges = true
	rep.WorstSteps = int(worst)
	if worst > 0 {
		rep.WorstStart = e.c.Decode(worstID)
	}
	return rep, om, stats
}
