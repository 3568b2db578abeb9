package crosscheck

import (
	"ssrmin/internal/core"
	"ssrmin/internal/cst"
	"ssrmin/internal/statemodel"
)

// Predicate slots of holderTracker: slot k is bit 1<<k of a node's
// holder bits and indexes the counts and sums.
const (
	slotPrimary = iota
	slotSecondary
	slotToken
	numSlots
)

// holderTracker maintains the inputs of the census and separation
// invariants incrementally: which nodes hold the primary token, the
// secondary token, and any token (the census). Every token predicate
// reads only a node's View, so after an event a tier re-evaluates just
// the nodes whose views the event could change and the tracker adjusts
// the counts; only perturbations outside the model's own moves (fault
// injection, churn) need a full rescan.
//
// Besides the holder count the tracker keeps the sum of holder ids per
// predicate: when the count is 1 the sum is the singleton holder, which
// is all the separation monitor reads.
type holderTracker struct {
	bits  []uint8
	count [numSlots]int
	sum   [numSlots]int
	// one holds the reused singleton slices handed to the separation
	// monitor.
	one [2][1]int
}

func newHolderTracker(nodes int) *holderTracker {
	return &holderTracker{bits: make([]uint8, nodes)}
}

// holderBits evaluates the token predicates on one view. The census
// predicate core.HasToken is the disjunction of the other two.
func holderBits(v statemodel.View[core.State]) uint8 {
	var b uint8
	if core.HasPrimary(v) {
		b |= 1 << slotPrimary
	}
	if core.HasSecondary(v) {
		b |= 1 << slotSecondary
	}
	if b != 0 {
		b |= 1 << slotToken
	}
	return b
}

// set records node i's holder bits.
func (t *holderTracker) set(i int, b uint8) {
	old := t.bits[i]
	if old == b {
		return
	}
	t.bits[i] = b
	for slot := 0; slot < numSlots; slot++ {
		was, is := old>>slot&1 != 0, b>>slot&1 != 0
		switch {
		case is && !was:
			t.count[slot]++
			t.sum[slot] += i
		case was && !is:
			t.count[slot]--
			t.sum[slot] -= i
		}
	}
}

// census returns the number of token holders.
func (t *holderTracker) census() int { return t.count[slotToken] }

// singletons returns the primary and the secondary holder sets when each
// has exactly one member, and an empty set otherwise — the only holder
// multiplicity SeparationMonitor.Observe evaluates. The slices are
// reused by the next call.
func (t *holderTracker) singletons() (prim, sec []int) {
	return t.singleton(slotPrimary), t.singleton(slotSecondary)
}

func (t *holderTracker) singleton(slot int) []int {
	if t.count[slot] != 1 {
		return nil
	}
	t.one[slot][0] = t.sum[slot]
	return t.one[slot][:]
}

// rescanConfig re-evaluates every process of a state-tier configuration.
func (t *holderTracker) rescanConfig(c statemodel.Config[core.State]) {
	for i := range c {
		t.set(i, holderBits(c.View(i)))
	}
}

// stepped re-evaluates the processes whose views a state-tier step could
// change: each mover and its two ring neighbors.
func (t *holderTracker) stepped(c statemodel.Config[core.State], moves []statemodel.Move) {
	n := len(c)
	for _, m := range moves {
		for _, i := range [3]int{(m.Process - 1 + n) % n, m.Process, (m.Process + 1) % n} {
			t.set(i, holderBits(c.View(i)))
		}
	}
}

// rescanRing re-evaluates every node of a CST ring.
func (t *holderTracker) rescanRing(r *cst.Ring[core.State]) {
	for i := range r.Nodes {
		t.ringNode(r, i)
	}
}

// ringNode re-evaluates node i of a CST ring on its cached view. A node
// outside the ring holds nothing, as in Ring.Holders.
func (t *holderTracker) ringNode(r *cst.Ring[core.State], i int) {
	var b uint8
	if r.Active(i) {
		b = holderBits(r.Nodes[i].View())
	}
	t.set(i, b)
}
