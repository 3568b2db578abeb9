package cst

import "ssrmin/internal/statemodel"

// Core is the transport-independent part of one CST node — Algorithm 4's
// step: take a neighbor's announcement into the cache, fire at most one
// rule against the cached view. It holds the node's state, its cache
// Z_i (one slot per ring neighbor) and the current neighbor ids, and
// nothing else: announcing, timers, dwell, pacing and counters belong to
// the transport that embeds it (msgnet handlers in Node, the sharded
// runtime.Engine, the TCP netring.Node). Every transport runs this one
// kernel, so the step that rulecheck audits is the step they all execute.
//
// Core is not safe for concurrent use; a transport that calls it from
// several goroutines holds its own lock.
type Core[S comparable] struct {
	state S
	// cachePred and cacheSucc are Z_i[pred] and Z_i[succ], held as plain
	// fields (a ring node has exactly two neighbors) so the hot path
	// touches no map.
	cachePred S
	cacheSucc S
	// pred and succ are the current ring neighbor ids, -1 when detached;
	// int32 keeps the engine's per-node record compact at 100k+ nodes.
	pred, succ int32
	// quiet records that EnabledRule returned 0 on the current view and
	// nothing has changed the view since; every write that can change it
	// clears the flag. See Fire.
	quiet bool
}

// NewCore returns a core in state s with both cache slots seeded to s
// (no announcement heard yet) and the founding ring neighbors of node i
// of an n-ring.
func NewCore[S comparable](i, n int, s S) Core[S] {
	return Core[S]{
		state:     s,
		cachePred: s,
		cacheSucc: s,
		pred:      int32((i - 1 + n) % n),
		succ:      int32((i + 1) % n),
	}
}

// View builds node i's view of an n-ring: its own state plus the cached
// neighbor states. All guard evaluation and every token predicate of the
// message-passing model reads this view.
//
//allocgate:hot
func (c *Core[S]) View(i, n int) statemodel.View[S] {
	return statemodel.View[S]{I: i, N: n, Self: c.state, Pred: c.cachePred, Succ: c.cacheSucc}
}

// Deliver takes an announcement of state s from node from into the
// cache and reports whether it was accepted. A frame from a node that is
// not (any longer) a ring neighbor, or one reaching a detached node, is
// stale — it was already on the medium when churn rewired the ring — and
// leaves the cache untouched. On a two-node ring pred == succ and both
// slots take the frame: they describe the same process. Only a payload
// that differs from the slot's contents clears the quiet memo.
//
//allocgate:hot
func (c *Core[S]) Deliver(from int, s S) bool {
	ok := false
	if from == int(c.pred) {
		if c.cachePred != s {
			c.cachePred = s
			c.quiet = false
		}
		ok = true
	}
	if from == int(c.succ) {
		if c.cacheSucc != s {
			c.cacheSucc = s
			c.quiet = false
		}
		ok = true
	}
	return ok
}

// Fire executes at most one enabled rule of alg against node i's cached
// view and returns it (0 when none is enabled) — the composite-atomicity
// step every transport shares.
//
// When the last Fire found no enabled rule and the view has not changed
// since (Quiet), Fire returns 0 without evaluating: EnabledRule is a pure
// function of the view (the statemodel.Algorithm contract rulecheck
// audits), so its answer is already known. In a legitimate ring nearly
// every delivery repeats a state the cache already holds, and this skips
// the guard evaluation for all of them. A core must be fired with one
// algorithm and one (i, n) throughout, as every transport does.
//
//rulecheck:step
//allocgate:hot
func (c *Core[S]) Fire(alg statemodel.Algorithm[S], i, n int) int {
	if c.quiet {
		return 0
	}
	v := c.View(i, n)
	rule := alg.EnabledRule(v)
	if rule != 0 {
		c.state = alg.Apply(v, rule)
	} else {
		c.quiet = true
	}
	return rule
}

// Quiet reports whether the current view is known to enable no rule: the
// last Fire returned 0 and no Deliver, SetState, SetCaches or Detach has
// changed the view since. A transport may reuse any other pure function
// of the view it evaluated after that Fire (the engine reuses its
// privilege predicate).
func (c *Core[S]) Quiet() bool { return c.quiet }

// State returns the local state q_i.
func (c *Core[S]) State() S { return c.state }

// SetState overwrites the local state (fault injection, a joiner's
// starting state).
func (c *Core[S]) SetState(s S) { c.state, c.quiet = s, false }

// SetCaches overwrites both cache slots.
func (c *Core[S]) SetCaches(pred, succ S) {
	c.cachePred, c.cacheSucc, c.quiet = pred, succ, false
}

// Neighbors returns the current ring neighbor ids (-1, -1 when detached).
func (c *Core[S]) Neighbors() (pred, succ int) { return int(c.pred), int(c.succ) }

// SetPred and SetSucc rewire one side of the node (churn). The cache
// slot keeps its contents: the node has not heard from the new neighbor
// yet, so its view of that side stays arbitrary until the next
// announcement — the Theorem 4 incoherence the refresh timer heals.
func (c *Core[S]) SetPred(id int) { c.pred = int32(id) }

// SetSucc rewires the successor side; see SetPred.
func (c *Core[S]) SetSucc(id int) { c.succ = int32(id) }

// Detach takes the node out of the ring: it accepts no frame until
// SetPred and SetSucc wire it back in.
func (c *Core[S]) Detach() { c.pred, c.succ, c.quiet = -1, -1, false }

// Detached reports whether the node is outside the ring.
func (c *Core[S]) Detached() bool { return c.pred < 0 }
