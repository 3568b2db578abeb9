// Compiled transition tables: guards and commands of a
// statemodel.PositionUniform algorithm depend only on the (pred, self,
// succ) view and the position class (bottom vs. other), so they can be
// evaluated once per encoded state triple and stored in two dense tables
// of |Q|³ entries. The engine built on top (engine.go) then expands
// successors by pure digit arithmetic on uint64 configuration IDs — no
// Decode/Encode, no View construction, no per-node allocation.
//
// The tables also reveal the instance's value-shift symmetry. Let σ add a
// stride s (a divisor of q) to every state index, mod q. If σ maps each
// table entry onto an entry with the same rule whose next state is σ of
// the original next state, then σ applied to every position of a
// configuration is an automorphism of the distributed-daemon transition
// graph: the enabled processes and rules are the same, and each successor
// is shifted the same way. For SSRmin, whose AllStates lists states
// X-major with four flag combinations per counter value, s = 4 is the
// counter shift X ↦ X+1 mod K: guards only compare counters for equality
// and commands only write pred.X or pred.X+1. SSToken's states are bare
// counters, so s = 1. Rotating positions is not a symmetry, because the
// bottom process P0 runs other code than the rest (the tables are per
// position class), so the checker never quotients by it. See
// Engine.convergence for how the search uses σ.
package check

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"ssrmin/internal/statemodel"
)

// Engine is the table-compiled, ID-space sibling of Checker. All its passes
// operate on dense uint64 configuration IDs (the same encoding as
// Checker.Encode); the full-space scans shard the ID space across a worker
// pool. Build one with Checker.Compile.
type Engine[S comparable] struct {
	c       *Checker[S]
	q       int      // |Q|, number of local states
	n       int      // ring size
	total   uint64   // |Γ| = q^n
	pow     []uint64 // pow[i] = q^i, the place value of position i
	workers int

	// rule[class][triple] is the enabled rule (0 = none) for a process of
	// the given position class (0 = bottom, 1 = other) observing the
	// encoded (pred, self, succ) triple; next[class][triple] is the state
	// index after applying that rule. Triples use statemodel.TripleIndex.
	rule [statemodel.ViewClasses][]uint8
	next [statemodel.ViewClasses][]int32

	// allRules has bit r set for every rule number r of the algorithm.
	allRules uint32

	// stride is the smallest value-shift stride the tables commute with
	// (q when only the identity does), found once by strideOnce.
	strideOnce sync.Once
	stride     int
}

// maxSubsetMoves bounds the distributed-daemon subset enumeration, like
// the legacy Successors guard.
const maxSubsetMoves = 25

// Compile builds the table-compiled engine for this checker's instance.
// It fails unless the algorithm declares statemodel.PositionUniform. The
// worker count applies to the parallel scans, LegitSet and
// CheckNoDeadlock; ≤ 0 selects GOMAXPROCS. CheckClosure and the
// convergence analyses are sequential.
func (c *Checker[S]) Compile(workers int) (*Engine[S], error) {
	if _, ok := any(c.alg).(statemodel.PositionUniform); !ok {
		return nil, fmt.Errorf("check: %s does not declare statemodel.PositionUniform; cannot compile transition tables", c.alg.Name())
	}
	if r := c.alg.Rules(); r > 30 {
		return nil, fmt.Errorf("check: %d rules exceed the 30-rule mask of the compiled engine", r)
	}
	total := c.NumConfigs()
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("check: |Γ| = %d exceeds the 2³² ID-space of the compiled engine", total)
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	e := &Engine[S]{c: c, q: len(c.states), n: c.n, total: total, workers: workers}
	e.pow = make([]uint64, e.n+1)
	e.pow[0] = 1
	for i := 1; i <= e.n; i++ {
		e.pow[i] = e.pow[i-1] * uint64(e.q)
	}
	for r := 1; r <= c.alg.Rules(); r++ {
		e.allRules |= 1 << uint(r)
	}
	for class := 0; class < statemodel.ViewClasses; class++ {
		rt := make([]uint8, e.q*e.q*e.q)
		nt := make([]int32, e.q*e.q*e.q)
		for p := 0; p < e.q; p++ {
			for s := 0; s < e.q; s++ {
				for u := 0; u < e.q; u++ {
					t := statemodel.TripleIndex(e.q, p, s, u)
					v := statemodel.ClassView(class, e.n, c.states[p], c.states[s], c.states[u])
					r := c.alg.EnabledRule(v)
					rt[t] = uint8(r)
					nt[t] = int32(s) // no move: state unchanged
					if r != 0 {
						ns, ok := c.index[c.alg.Apply(v, r)]
						if !ok {
							return nil, fmt.Errorf("check: Apply(%v, %d) left the state space", v, r)
						}
						nt[t] = int32(ns)
					}
				}
			}
		}
		e.rule[class] = rt
		e.next[class] = nt
	}
	return e, nil
}

// NumConfigs returns |Γ|.
func (e *Engine[S]) NumConfigs() uint64 { return e.total }

// tableStride returns the smallest stride s dividing q such that the value
// shift σ(x) = (x+s) mod q commutes with the compiled tables, or q when no
// nontrivial shift does. The strides that commute form a subgroup of Z_q,
// so the smallest one generates all of them. The search runs once, on the
// first convergence analysis, so Compile does not pay for it.
func (e *Engine[S]) tableStride() int {
	e.strideOnce.Do(func() {
		e.stride = e.q
		for s := 1; s < e.q; s++ {
			if e.q%s == 0 && e.commutesWithShift(s) {
				e.stride = s
				return
			}
		}
	})
	return e.stride
}

// commutesWithShift reports whether σ with stride s leaves every rule
// entry unchanged and maps every next state to σ of itself, in both
// position classes.
func (e *Engine[S]) commutesWithShift(s int) bool {
	q := e.q
	for class := range e.rule {
		rt, nt := e.rule[class], e.next[class]
		for t := range rt {
			p, x, u := t/(q*q), t/q%q, t%q
			st := statemodel.TripleIndex(q, (p+s)%q, (x+s)%q, (u+s)%q)
			if rt[st] != rt[t] || int(nt[st]) != (int(nt[t])+s)%q {
				return false
			}
		}
	}
	return true
}

// shiftInvariant reports whether σ with stride s maps every member of lam
// into lam. σ is a bijection of Γ, so this makes σ(Λ) = Λ.
func (e *Engine[S]) shiftInvariant(lam *IDSet, s int) bool {
	digits := make([]int, e.n)
	ok := true
	lam.ForEach(func(id uint64) bool {
		e.digitsOf(id, digits)
		var sid uint64
		for i, d := range digits {
			sid += uint64((d+s)%e.q) * e.pow[i]
		}
		ok = lam.Contains(sid)
		return ok
	})
	return ok
}

// Tables is the exported copy of an engine's compiled transition
// relation: for each position class (0 = bottom, 1 = other) and each
// encoded (pred, self, succ) triple (statemodel.TripleIndex layout over
// Q states), the enabled rule (0 = none) and the state index after
// applying it (the self index unchanged when no rule is enabled).
//
// This is the ground truth the rulecheck analyzer (internal/lint) diffs
// its symbolic source extraction against: the tables are synthesized by
// *executing* the algorithm's compiled EnabledRule/Apply, while
// rulecheck re-derives the same relation from the typed AST, so any
// divergence between the source a reviewer reads and the behavior the
// binary has becomes a lint finding with a concrete view witness.
type Tables struct {
	// Q is the number of local states (the digit alphabet size).
	Q int
	// Rule[class][triple] is the enabled rule number, 0 when disabled.
	Rule [statemodel.ViewClasses][]uint8
	// Next[class][triple] is the state index after the enabled rule.
	Next [statemodel.ViewClasses][]int32
}

// Tables returns a deep copy of the engine's compiled transition tables.
func (e *Engine[S]) Tables() Tables {
	t := Tables{Q: e.q}
	for class := 0; class < statemodel.ViewClasses; class++ {
		t.Rule[class] = append([]uint8(nil), e.rule[class]...)
		t.Next[class] = append([]int32(nil), e.next[class]...)
	}
	return t
}

// Workers returns the worker-pool size of the parallel scans (LegitSet
// and CheckNoDeadlock).
func (e *Engine[S]) Workers() int { return e.workers }

// digitsOf decomposes id into its base-q digits (the per-position state
// indices), writing into buf (which must have length n). IDs fit in 32
// bits (Compile enforces it), so the divisions are 32-bit ones.
func (e *Engine[S]) digitsOf(id uint64, buf []int) {
	q, x := uint32(e.q), uint32(id)
	for i := range buf {
		buf[i] = int(x % q)
		x /= q
	}
}

// Triples writes the encoded (pred, self, succ) triple of every position
// of configuration id into buf, growing it as needed. Position 0 is the
// bottom class; callers evaluating compiled per-view tables (e.g.
// inclusion.CensusTable) index class 0 for position 0 and class 1
// elsewhere.
func (e *Engine[S]) Triples(id uint64, buf []uint32) []uint32 {
	digits := make([]int, e.n)
	e.digitsOf(id, digits)
	buf = buf[:0]
	for i := 0; i < e.n; i++ {
		pd := digits[(i+e.n-1)%e.n]
		ud := digits[(i+1)%e.n]
		buf = append(buf, uint32(statemodel.TripleIndex(e.q, pd, digits[i], ud)))
	}
	return buf
}

// mover is one enabled move: the process at pos enters state index to.
// Executing it adds delta to the ID (the state-index change times the
// position's place value — composite atomicity makes simultaneous moves
// sum).
type mover struct {
	delta   int64
	pos, to int
}

// enabledMoves appends the moves of the configuration with the given
// digits that are permitted by ruleMask, in increasing position order,
// with deltas over the place values pow (the configuration encoding's or
// an orbit encoding's).
func (e *Engine[S]) enabledMoves(digits []int, ruleMask uint32, pow []uint64, buf []mover) []mover {
	q, n := e.q, len(digits)
	pd, class := digits[n-1], 0 // position 0 is the bottom class
	for i, sd := range digits {
		ud := digits[0]
		if i+1 < n {
			ud = digits[i+1]
		}
		t := (pd*q+sd)*q + ud
		pd = sd
		r := e.rule[class][t]
		if r != 0 && ruleMask&(1<<uint(r)) != 0 {
			to := int(e.next[class][t])
			buf = append(buf, mover{delta: int64(to-sd) * int64(pow[i]), pos: i, to: to})
		}
		class = 1
	}
	return buf
}

// IDSet is a dense bitmap over the configuration ID space — the engine's
// representation of Λ.
type IDSet struct {
	words []uint64
	count uint64
}

func newIDSet(total uint64) *IDSet {
	return &IDSet{words: make([]uint64, (total+63)/64)}
}

// Contains reports membership of id.
func (s *IDSet) Contains(id uint64) bool {
	return s.words[id>>6]>>(id&63)&1 == 1
}

// set marks id; safe only while a single goroutine owns id's word (the
// engine's range shards are 64-aligned, so chunk owners never share one).
func (s *IDSet) set(id uint64) {
	s.words[id>>6] |= 1 << (id & 63)
}

// Count returns the number of members.
func (s *IDSet) Count() uint64 { return s.count }

// ForEach visits every member in increasing ID order until visit returns
// false.
func (s *IDSet) ForEach(visit func(id uint64) bool) {
	for wi, w := range s.words {
		for w != 0 {
			id := uint64(wi)<<6 | uint64(bits.TrailingZeros64(w))
			if !visit(id) {
				return
			}
			w &= w - 1
		}
	}
}
