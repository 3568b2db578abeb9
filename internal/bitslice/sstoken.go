package bitslice

import (
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

// SSToken is a 64-lane bit-sliced batch of Dijkstra's K-state token
// ring (internal/dijkstra): the shared digit ring alone, one rule per
// node.
type SSToken struct {
	digitRing
}

// NewSSToken builds an all-zero batch for ring size n and alphabet K
// under the given daemon protocol.
func NewSSToken(n, k int, d DaemonKind) *SSToken {
	return &SSToken{digitRing: newDigitRing(n, 2, k, d)}
}

// SeedLanes samples all 64 lanes, lane L from SeedStream(seed, L) with
// one SampleSSToken draw per node, mirroring the scalar oracle; each
// node's 64 draws become its digit planes through one transpose.
//
//allocgate:hot
func (b *SSToken) SeedLanes(seed int64) {
	b.seedStreams(seed)
	for i := 0; i < b.n; i++ {
		b.seedDigit(i)
	}
}

// SetLaneState overwrites node i's state in one lane.
func (b *SSToken) SetLaneState(lane, i int, s dijkstra.State) {
	setDigitLane(b.digit(i), lane, s.X%b.k)
}

// LaneConfig extracts one lane's configuration in scalar form.
func (b *SSToken) LaneConfig(lane int) statemodel.Config[dijkstra.State] {
	c := make(statemodel.Config[dijkstra.State], b.n)
	for i := 0; i < b.n; i++ {
		c[i] = dijkstra.State{X: digitLane(b.digit(i), lane)}
	}
	return c
}

// Step advances every lane by one daemon step and returns the mask of
// deadlocked lanes (always zero for this algorithm: some guard is
// always up on a ring with K ≥ n). It re-evaluates the guards first,
// since SetLaneState may have changed the configuration since the last
// pass.
func (b *SSToken) Step() uint64 {
	b.guards()
	return b.step(allLanes)
}

// LegitMask returns the mask of lanes currently in a legitimate
// (single-token strict-form) configuration.
func (b *SSToken) LegitMask() uint64 { return b.legitMask(b.guards()) }

// Run steps the batch until every lane reaches a legitimate
// configuration or exhausts maxSteps, returning per-lane transition
// counts and the converged mask — matching
// statemodel.Simulator.RunUntil(Legitimate, maxSteps) per lane.
func (b *SSToken) Run(maxSteps int) (steps [Lanes]int, converged uint64) {
	return run(b, maxSteps)
}

// step performs one composite-atomicity daemon step on the lanes in
// active, with the guards b.g of the last guards pass; see SSRmin.step
// for the two-pass shape.
//
//allocgate:hot
func (b *SSToken) step(active uint64) (stuck uint64) {
	n := b.n
	subset := b.daemon == Subset
	if subset {
		b.drawCoins()
	}

	var anyEn, anySel uint64
	for i := 0; i < n; i++ {
		en := b.g[i] & active
		b.en[i] = en
		anyEn |= en
		if subset {
			anySel |= en & b.coins[i]
		}
	}
	stuck = active &^ anyEn

	fallback := allLanes
	if subset {
		fallback = anyEn &^ anySel
	}

	incModK(b.inc, b.digit(n-1), b.kc)
	for i := n - 1; i >= 0; i-- {
		sel := b.en[i]
		if subset {
			sel &= b.coins[i] | fallback
		}
		b.command(i, sel)
	}
	return stuck
}

// legitMask evaluates dijkstra.Algorithm.Legitimate lane-parallel from
// the last guards pass: exactly one guard up (the mask one), and the
// strict-form digit condition.
//
//allocgate:hot
func (b *SSToken) legitMask(one uint64) uint64 {
	if one == 0 {
		return 0
	}
	return one & b.strictForm()
}
