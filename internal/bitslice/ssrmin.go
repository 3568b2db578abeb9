package bitslice

import (
	"ssrmin/internal/core"
	"ssrmin/internal/statemodel"
)

// SSRmin is a 64-lane bit-sliced batch of the paper's SSRmin algorithm:
// the shared digit ring plus the RTS and TRA flags, one word per node.
// All buffers are allocated once in NewSSRmin; stepping is pure word
// arithmetic.
type SSRmin struct {
	digitRing

	rts []uint64 // one word per node
	tra []uint64

	// Per-node rule masks of the step in flight: rules R1/R3 (flag
	// writers) and R2|R4 (the X writers).
	r1, r3, cmd []uint64
}

// NewSSRmin builds an all-zero batch for ring size n and alphabet K
// under the given daemon protocol. Seed lanes with SeedLanes (or poke
// states with SetLaneState) before running.
func NewSSRmin(n, k int, d DaemonKind) *SSRmin {
	return &SSRmin{
		digitRing: newDigitRing(n, 3, k, d),
		rts:       make([]uint64, n),
		tra:       make([]uint64, n),
		r1:        make([]uint64, n),
		r3:        make([]uint64, n),
		cmd:       make([]uint64, n),
	}
}

// SeedLanes samples all 64 lanes' initial configurations, lane L from
// SeedStream(seed, L) with one SampleSSRmin draw per node — exactly the
// draws the scalar oracle makes — and leaves each lane's stream
// positioned for the daemon coins of step one. It seeds node-major: each
// node's 64 draws become its digit planes through one transpose, and the
// draws' top two bits its RTS and TRA rows.
//
//allocgate:hot
func (b *SSRmin) SeedLanes(seed int64) {
	b.seedStreams(seed)
	for i := 0; i < b.n; i++ {
		b.rts[i], b.tra[i] = b.seedDigit(i)
	}
}

// SetLaneState overwrites node i's state in one lane.
func (b *SSRmin) SetLaneState(lane, i int, s core.State) {
	setDigitLane(b.digit(i), lane, s.X%b.k)
	setFlagLane(&b.rts[i], lane, s.RTS)
	setFlagLane(&b.tra[i], lane, s.TRA)
}

// LaneConfig extracts one lane's configuration in scalar form.
func (b *SSRmin) LaneConfig(lane int) statemodel.Config[core.State] {
	c := make(statemodel.Config[core.State], b.n)
	for i := 0; i < b.n; i++ {
		c[i] = core.State{
			X:   digitLane(b.digit(i), lane),
			RTS: b.rts[i]>>uint(lane)&1 == 1,
			TRA: b.tra[i]>>uint(lane)&1 == 1,
		}
	}
	return c
}

// Step advances every lane by one daemon step and returns the mask of
// lanes that had no enabled process (deadlocked lanes, untouched). It
// re-evaluates the guards first, since SetLaneState may have changed the
// configuration since the last pass.
func (b *SSRmin) Step() uint64 {
	b.guards()
	return b.step(allLanes)
}

// LegitMask returns the mask of lanes currently in a legitimate
// configuration (the exact predicate of core.Algorithm.Legitimate).
func (b *SSRmin) LegitMask() uint64 { return b.legitMask(b.guards()) }

// Run seeds nothing and steps the batch until every lane either reaches
// a legitimate configuration, deadlocks, or exhausts maxSteps. It
// returns each lane's transition count at retirement — matching
// statemodel.Simulator.RunUntil(Legitimate, maxSteps) draw-for-draw —
// and the mask of lanes that converged.
func (b *SSRmin) Run(maxSteps int) (steps [Lanes]int, converged uint64) {
	return run(b, maxSteps)
}

// step performs one composite-atomicity daemon step on the lanes in
// active. Pass 1 reads the old configuration — with the guards b.g of
// the last guards pass, which must be on this configuration — into
// per-node rule masks and accumulates the subset daemon's selection
// try; pass 2 commits, walking the ring descending (with node 0's
// x_{n-1}+1 computed first) so every command still reads pre-step
// neighbor digits in place. Returns the active lanes with no enabled
// process.
//
//allocgate:hot
func (b *SSRmin) step(active uint64) (stuck uint64) {
	n := b.n
	subset := b.daemon == Subset
	if subset {
		b.drawCoins()
	}

	var anyEn, anySel uint64
	for i := 0; i < n; i++ {
		pred, succ := i-1, i+1
		if i == 0 {
			pred = n - 1
		}
		if succ == n {
			succ = 0
		}
		g := b.g[i]
		sR, sT := b.rts[i], b.tra[i]
		pR, pT := b.rts[pred], b.tra[pred]
		nR, nT := b.rts[succ], b.tra[succ]

		self10 := sR &^ sT
		self01 := sT &^ sR
		self00 := ^(sR | sT)
		succ01 := nT &^ nR
		pred10 := pR &^ pT

		r1 := g &^ self10
		r2 := g & self10 & succ01
		r4 := g & self10 &^ succ01 &^ (^(pR | pT) & ^(nR | nT))
		r3 := ^g & pred10 &^ self01
		r5 := ^g &^ r3 &^ self00 &^ (pred10 & self01)

		en := (r1 | r2 | r3 | r4 | r5) & active
		b.en[i] = en
		b.r1[i], b.r3[i] = r1, r3
		b.cmd[i] = r2 | r4
		anyEn |= en
		if subset {
			anySel |= en & b.coins[i]
		}
	}
	stuck = active &^ anyEn

	// Lanes whose coin pick selected nothing fall back to every enabled
	// process; the synchronous daemon always takes everything enabled.
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
		b.rts[i] = (b.rts[i] &^ sel) | (sel & b.r1[i])
		b.tra[i] = (b.tra[i] &^ sel) | (sel & b.r3[i])
		b.command(i, sel&b.cmd[i])
	}
	return stuck
}

// legitMask evaluates core.Algorithm.Legitimate lane-parallel: exactly
// one Dijkstra guard, the strict-form digit condition, and no handshake
// violation anywhere on the ring. It reads b.g and takes one, the lanes
// with a unique guard, from the guards pass on this configuration.
//
//allocgate:hot
func (b *SSRmin) legitMask(one uint64) uint64 {
	if one == 0 {
		return 0
	}
	n := b.n

	// Handshake discipline: every node outside {holder, holder's
	// successor} is ⟨0.0⟩; the holder is ⟨0.1⟩ or ⟨1.0⟩; a holder at
	// ⟨0.1⟩ demands successor ⟨0.0⟩, a holder at ⟨1.0⟩ allows successor
	// ⟨0.0⟩ or ⟨0.1⟩.
	var viol uint64
	for i := 0; i < n; i++ {
		pred, succ := i-1, i+1
		if i == 0 {
			pred = n - 1
		}
		if succ == n {
			succ = 0
		}
		g, hp := b.g[i], b.g[pred]
		sR, sT := b.rts[i], b.tra[i]
		nR, nT := b.rts[succ], b.tra[succ]
		p01 := sT &^ sR
		p10 := sR &^ sT
		viol |= ^g &^ hp & (sR | sT)
		viol |= g &^ (p01 | p10)
		viol |= g & p01 & (nR | nT)
		viol |= g & p10 & nR
	}

	return one & b.strictForm() &^ viol
}
