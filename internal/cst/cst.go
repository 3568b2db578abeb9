// Package cst implements the cached sensornet transform (CST) of Herman
// (2003), reproduced as Algorithm 4 of the paper: the standard scheme that
// executes a state-reading-model algorithm in a message-passing network.
//
// Each node keeps a cache Z_i[v_k] of every neighbor's local state. On
// receipt of a ⟨state, q⟩ message it refreshes the cache entry, executes
// at most one enabled rule against the cached neighborhood, and announces
// its own (possibly updated) state to both neighbors; an interval timer
// also re-announces the state periodically so that lost messages and
// corrupted caches heal — the ingredient that preserves self-stabilization
// in a lossy network.
//
// Token predicates are evaluated against the node's own state and its
// *caches* — exactly the reading the model-gap discussion of Section 5 is
// about: between a state update and the delivery of its announcement the
// caches are incoherent, and a naive algorithm (plain Dijkstra SSToken)
// passes through instants with zero token holders (Figure 11). SSRmin's
// token conditions are designed so that some node always holds a token
// through those transient periods (Theorem 3).
package cst

import (
	"fmt"
	"math/rand"

	"ssrmin/internal/msgnet"
	"ssrmin/internal/statemodel"
)

// Node is the CST wrapper of one process: an msgnet.Handler that runs
// the shared Core against msgnet deliveries and adds what only this
// transport has — the refresh timer, the Hold dwell and the counters.
type Node[S comparable] struct {
	Core[S]
	alg     statemodel.Algorithm[S]
	id      int
	n       int
	refresh msgnet.Time

	// Hold is the critical-section dwell time: how long the node sits on
	// an enabled rule before executing it, modelling the application work
	// a privileged node performs (e.g. the camera actively monitoring).
	// Zero means execute synchronously on receipt, the literal Algorithm 4.
	Hold        msgnet.Time
	holdPending bool

	// RuleExecutions counts rules executed by this node.
	RuleExecutions int
	// StaleFrames counts discarded deliveries: frames that arrived from a
	// node that is not (any longer) a ring neighbor, or while detached —
	// the residue of churn rewiring, already on the medium when the
	// topology changed.
	StaleFrames int
	// OnExecute, when non-nil, is invoked after the node executes a rule.
	OnExecute func(now msgnet.Time, rule int)
}

const (
	timerRefresh = 1
	timerExecute = 2
)

// NewNode creates a CST node for process id of alg. Both caches start as
// copies of init until SetCache seeds them (NewRing does this for whole
// rings).
func NewNode[S comparable](alg statemodel.Algorithm[S], id int, init S, refresh msgnet.Time) *Node[S] {
	if refresh <= 0 {
		panic("cst: refresh interval must be positive")
	}
	n := alg.N()
	return &Node[S]{
		Core:    NewCore(id, n, init),
		alg:     alg,
		id:      id,
		n:       n,
		refresh: refresh,
	}
}

// Detach removes the node from the ring (a leave, or a not-yet-joined
// spare). A detached node ignores deliveries and timers and announces to
// nobody; Start on a detached node is a no-op, so dormant spares consume
// no events and draw nothing from the RNG until they join.
func (nd *Node[S]) Detach() {
	nd.Core.Detach()
	nd.holdPending = false
}

// Cache returns the cached state of neighbor k (the zero state when k is
// not a ring neighbor, mirroring an absent map entry).
func (nd *Node[S]) Cache(k int) S {
	switch k {
	case int(nd.pred):
		return nd.cachePred
	case int(nd.succ):
		return nd.cacheSucc
	}
	var zero S
	return zero
}

// SetCache overwrites a cache entry (initialization or fault injection).
// k must be a ring neighbor of the node; on two-node rings, where
// pred == succ, both slots take s.
func (nd *Node[S]) SetCache(k int, s S) {
	if !nd.Deliver(k, s) {
		panic(fmt.Sprintf("cst: node %d has no neighbor %d", nd.id, k))
	}
}

// View builds the node's current view of the ring: its own state plus the
// cached neighbor states. It builds the view itself rather than calling
// Core.View, so Ring.Census stays within the compiler's inlining budget
// and a constant holder such as core.HasToken is inlined into its loop.
//
//allocgate:hot
func (nd *Node[S]) View() statemodel.View[S] {
	return statemodel.View[S]{I: nd.id, N: nd.n, Self: nd.state, Pred: nd.cachePred, Succ: nd.cacheSucc}
}

// Start implements msgnet.Handler: announce the initial state and arm the
// refresh timer with a random phase so nodes do not beat in lockstep.
// Detached spares do nothing (and draw nothing): they wake only when a
// join wires them in.
func (nd *Node[S]) Start(ctx *msgnet.Context[S]) {
	if nd.Detached() {
		return
	}
	nd.announce(ctx)
	phase := msgnet.Time(ctx.Rand().Float64()) * nd.refresh
	ctx.After(phase, timerRefresh)
}

// Receive implements msgnet.Handler: Algorithm 4's message action. The
// payload arrives as a concrete S — the network's frame type — so no
// type assertion or unboxing happens per message. A frame the core
// rejects as stale (see Core.Deliver) is counted and dropped.
func (nd *Node[S]) Receive(ctx *msgnet.Context[S], from int, s S) {
	if !nd.Deliver(from, s) {
		nd.StaleFrames++
		return
	}
	nd.executeOne(ctx)
	nd.announce(ctx)
}

// Timer implements msgnet.Handler: periodic re-announcement and deferred
// rule execution after the critical-section dwell. A detached node lets
// its timers lapse (the refresh chain is re-armed by the next join).
func (nd *Node[S]) Timer(ctx *msgnet.Context[S], kind int) {
	if nd.Detached() {
		return
	}
	switch kind {
	case timerRefresh:
		nd.announce(ctx)
		ctx.After(nd.refresh, timerRefresh)
	case timerExecute:
		nd.holdPending = false
		nd.executeNow(ctx)
		nd.announce(ctx)
	}
}

// executeOne runs at most one enabled rule against the cached view, either
// immediately (Hold == 0) or after the dwell time.
func (nd *Node[S]) executeOne(ctx *msgnet.Context[S]) {
	if nd.Hold <= 0 {
		nd.executeNow(ctx)
		return
	}
	if nd.holdPending {
		return
	}
	if nd.alg.EnabledRule(nd.View()) != 0 {
		nd.holdPending = true
		ctx.After(nd.Hold, timerExecute)
	}
}

// executeNow fires the core against the current cached view and records
// the execution.
func (nd *Node[S]) executeNow(ctx *msgnet.Context[S]) {
	rule := nd.Fire(nd.alg, nd.id, nd.n)
	if rule == 0 {
		return
	}
	nd.RuleExecutions++
	if nd.OnExecute != nil {
		nd.OnExecute(ctx.Now(), rule)
	}
}

// announce sends the current state to both neighbors (busy links swallow
// the send, per the one-message-per-direction link model).
func (nd *Node[S]) announce(ctx *msgnet.Context[S]) {
	ctx.Send(int(nd.pred), nd.state)
	ctx.Send(int(nd.succ), nd.state)
}

// Ring wires n CST nodes into a bidirectional ring over an msgnet
// simulation. Rings built with Options.Spare > 0 can be rewired mid-run
// with Join, Leave and Splice.
type Ring[S comparable] struct {
	// Net is the underlying event simulation; run it to advance time.
	Net *msgnet.Network[S]
	// Nodes holds the CST nodes, indexed by process id. With spares this
	// includes dormant not-yet-joined nodes; see Active.
	Nodes []*Node[S]

	// link is the parameter set applied to links created by churn ops.
	link msgnet.LinkParams
	// members counts the attached nodes.
	members int
	// spareNext is the id of the next dormant spare a Join will wake.
	spareNext int
}

// Options configures NewRing.
type Options[S comparable] struct {
	// Link is the parameter set of every directed ring link.
	Link msgnet.LinkParams
	// Refresh is the period of the cache-refresh timer.
	Refresh msgnet.Time
	// Seed drives all simulation randomness.
	Seed int64
	// Hold is the critical-section dwell time applied to every node (see
	// Node.Hold).
	Hold msgnet.Time
	// CoherentCaches, when true, seeds every cache with the neighbor's
	// true initial state (the "legitimate configuration with
	// cache-coherence" hypothesis of Theorem 3). When false, caches are
	// seeded with random states drawn via RandomState (arbitrary bad
	// incoherence, the Theorem 4 setting); if RandomState is nil the
	// node's own state is used instead.
	CoherentCaches bool
	// RandomState draws an arbitrary state for incoherent cache seeding.
	RandomState func(rng *rand.Rand) S
	// Arena, when non-nil, is installed on the network via UseArena so a
	// sweep's simulations reuse one event arena (reset, not reallocated,
	// between trials). The caller must not share a live arena between
	// concurrently running rings.
	Arena *msgnet.Arena[S]
	// Spare is the number of dormant extra nodes (ids n..n+Spare-1)
	// preallocated for mid-run joins. msgnet cannot grow its handler set
	// after the simulation starts, so every node a churn schedule may ever
	// join must exist — detached and silent — from the beginning.
	Spare int
}

// NewRing builds the network, one node per entry of init, plus
// opts.Spare dormant spares awaiting Join.
func NewRing[S comparable](alg statemodel.Algorithm[S], init statemodel.Config[S], opts Options[S]) *Ring[S] {
	n := alg.N()
	if len(init) != n {
		panic(fmt.Sprintf("cst: init length %d != n %d", len(init), n))
	}
	if opts.Spare < 0 {
		panic("cst: negative spare count")
	}
	total := n + opts.Spare
	nodes := make([]*Node[S], total)
	handlers := make([]msgnet.Handler[S], total)
	var zero S
	for i := 0; i < total; i++ {
		st := zero
		if i < n {
			st = init[i]
		}
		nodes[i] = NewNode[S](alg, i, st, opts.Refresh)
		nodes[i].Hold = opts.Hold
		if i >= n {
			nodes[i].Detach()
		}
		handlers[i] = nodes[i]
	}
	net := msgnet.New(handlers, opts.Seed)
	if opts.Arena != nil {
		net.UseArena(opts.Arena)
	}
	// Ring links between the n founding members only; spares are
	// link-less until they join. (RingLinks would wire the spares in, so
	// the loop is inlined here — same edges, same insertion order.)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		net.AddLink(i, j, opts.Link)
		net.AddLink(j, i, opts.Link)
	}
	seedRNG := rand.New(rand.NewSource(opts.Seed + 1))
	for i := 0; i < n; i++ {
		nd := nodes[i]
		p, s := nd.Neighbors()
		if opts.CoherentCaches {
			nd.SetCache(p, init[p])
			nd.SetCache(s, init[s])
		} else {
			nd.SetCache(p, drawState(seedRNG, opts, init[i]))
			nd.SetCache(s, drawState(seedRNG, opts, init[i]))
		}
	}
	return &Ring[S]{
		Net:       net,
		Nodes:     nodes,
		link:      opts.Link,
		members:   n,
		spareNext: n,
	}
}

// Active reports whether node i is currently a ring member.
func (r *Ring[S]) Active(i int) bool { return !r.Nodes[i].Detached() }

// MemberCount returns the current ring size.
func (r *Ring[S]) MemberCount() int { return r.members }

// Members returns the active node ids in ring order, starting at node 0
// and following successor pointers. Node 0 (the Dijkstra bottom) can
// never leave, so it always anchors the walk.
func (r *Ring[S]) Members() []int {
	out := make([]int, 0, r.members)
	i := 0
	for {
		out = append(out, i)
		_, i = r.Nodes[i].Neighbors()
		if i == 0 {
			break
		}
		if len(out) > len(r.Nodes) {
			panic("cst: successor pointers do not close a ring")
		}
	}
	return out
}

// Join wakes the next dormant spare, splices it into the ring between
// `after` and after's current successor, and returns its id. The joiner
// starts from `state` with self-seeded (incoherent) caches, announces to
// both new neighbors immediately, and arms its refresh chain with a
// random phase — the message-passing analogue of a node powering on
// inside an already running ring.
func (r *Ring[S]) Join(after int, state S) int {
	if !r.Active(after) {
		panic(fmt.Sprintf("cst: join anchor %d is not a ring member", after))
	}
	if r.spareNext >= len(r.Nodes) {
		panic("cst: no dormant spare left to join")
	}
	j := r.spareNext
	r.spareNext++
	a, b := after, int(r.Nodes[after].succ)
	net := r.Net
	// The a—b edge is replaced by a—j—b. Frames already in transit on the
	// removed links still arrive and are discarded as stale.
	net.RemoveLink(a, b)
	net.RemoveLink(b, a)
	net.AddLink(a, j, r.link)
	net.AddLink(j, a, r.link)
	net.AddLink(j, b, r.link)
	net.AddLink(b, j, r.link)
	jn := r.Nodes[j]
	jn.SetState(state)
	// The joiner has not heard from either neighbor: seed its caches with
	// its own state (arbitrary incoherence, healed by the announcements).
	jn.SetCaches(state, state)
	r.wire(a, j)
	r.wire(j, b)
	r.members++
	net.SendFrom(j, a, state)
	net.SendFrom(j, b, state)
	phase := msgnet.Time(net.Rand().Float64()) * jn.refresh
	net.StartTimer(j, phase, timerRefresh)
	return j
}

// Leave removes node v from the ring and reconnects its neighbors with
// fresh (idle) links. Node 0 — the Dijkstra bottom the stabilization
// argument hangs on — can never leave.
func (r *Ring[S]) Leave(v int) {
	if v == 0 {
		panic("cst: node 0 (bottom) cannot leave the ring")
	}
	if !r.Active(v) {
		panic(fmt.Sprintf("cst: leave of non-member %d", v))
	}
	if r.members-1 < 3 {
		panic("cst: leave would shrink the ring below 3 members")
	}
	nd := r.Nodes[v]
	a, b := nd.Neighbors()
	net := r.Net
	net.RemoveLink(v, a)
	net.RemoveLink(a, v)
	net.RemoveLink(v, b)
	net.RemoveLink(b, v)
	net.AddLink(a, b, r.link)
	net.AddLink(b, a, r.link)
	r.wire(a, b)
	nd.Detach()
	r.members--
}

// Splice removes the arc of count consecutive members following `after`
// and reconnects the ring with one fresh edge — a multi-node partition
// healing in a single topology change, the scenario the graceful-handover
// property is really about. The arc may not contain node 0 or wrap the
// whole ring.
func (r *Ring[S]) Splice(after, count int) {
	if !r.Active(after) {
		panic(fmt.Sprintf("cst: splice anchor %d is not a ring member", after))
	}
	if count < 1 {
		panic("cst: splice count must be >= 1")
	}
	if r.members-count < 3 {
		panic("cst: splice would shrink the ring below 3 members")
	}
	//lint:ignore hotpath churn orchestration, cold path
	victims := make([]int, 0, count)
	_, v := r.Nodes[after].Neighbors()
	for i := 0; i < count; i++ {
		if v == 0 {
			panic("cst: splice arc contains node 0 (bottom)")
		}
		victims = append(victims, v)
		_, v = r.Nodes[v].Neighbors()
	}
	b := v
	net := r.Net
	for _, x := range victims {
		nd := r.Nodes[x]
		p, s := nd.Neighbors()
		net.RemoveLink(x, p)
		net.RemoveLink(p, x)
		net.RemoveLink(x, s)
		net.RemoveLink(s, x)
		nd.Detach()
		r.members--
	}
	net.AddLink(after, b, r.link)
	net.AddLink(b, after, r.link)
	r.wire(after, b)
}

// wire makes b the successor of a and a the predecessor of b.
func (r *Ring[S]) wire(a, b int) {
	r.Nodes[a].SetSucc(b)
	r.Nodes[b].SetPred(a)
}

func drawState[S comparable](rng *rand.Rand, opts Options[S], fallback S) S {
	if opts.RandomState != nil {
		return opts.RandomState(rng)
	}
	return fallback
}

// Census counts the nodes for which holder is true on their cached view —
// the number of token holders as the nodes themselves perceive it, which
// is the quantity Theorem 3 bounds.
func (r *Ring[S]) Census(holder func(statemodel.View[S]) bool) int {
	count := 0
	for _, nd := range r.Nodes {
		// nd.pred >= 0 is !nd.Detached(), spelled out to keep this loop
		// inlinable (see Node.View).
		if nd.pred >= 0 && holder(nd.View()) {
			count++
		}
	}
	return count
}

// Holders returns the ids of ring members whose cached view satisfies
// holder. Detached nodes hold nothing: a node outside the ring cannot be
// in the critical section.
func (r *Ring[S]) Holders(holder func(statemodel.View[S]) bool) []int {
	var out []int
	for i, nd := range r.Nodes {
		if nd.pred >= 0 && holder(nd.View()) { // inlinable, as in Census
			out = append(out, i)
		}
	}
	return out
}

// States returns the vector of true local states (a configuration in the
// state-reading sense, ignoring caches).
func (r *Ring[S]) States() statemodel.Config[S] {
	cfg := make(statemodel.Config[S], len(r.Nodes))
	for i, nd := range r.Nodes {
		cfg[i] = nd.State()
	}
	return cfg
}

// Coherent reports whether every ring member's cache equals its true
// neighbor's state (Definition 2). Neighbors come from the live
// successor/predecessor pointers, so the check follows churn rewiring.
func (r *Ring[S]) Coherent() bool {
	for _, nd := range r.Nodes {
		if nd.Detached() {
			continue
		}
		p, s := nd.Neighbors()
		if nd.Cache(p) != r.Nodes[p].State() || nd.Cache(s) != r.Nodes[s].State() {
			return false
		}
	}
	return true
}

// RuleExecutions sums rule executions across all nodes.
func (r *Ring[S]) RuleExecutions() int {
	total := 0
	for _, nd := range r.Nodes {
		total += nd.RuleExecutions
	}
	return total
}
