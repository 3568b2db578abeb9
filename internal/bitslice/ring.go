package bitslice

import "fmt"

// digitRing is the part of a batch both kernels share: the ring of
// Dijkstra digits stored plane-transposed (planes words per node, bit L
// of plane p = bit p of lane L's digit), every node's guard on the
// current configuration, and the 64 lane streams with their draw
// buffers. All buffers are allocated once by newDigitRing; everything
// after is word arithmetic.
type digitRing struct {
	n, k, planes int
	daemon       DaemonKind

	x   []uint64 // digit planes, x[i*planes : (i+1)*planes]
	kc  []uint64 // broadcast planes of the constant K
	inc []uint64 // scratch digit: an incremented digit

	// g holds every node's Dijkstra guard as of the last guards call;
	// en is the enabled mask of the step in flight.
	g, en []uint64

	lanes [Lanes]RNG
	draws [Lanes]uint64
	coins [Lanes]uint64
}

// newDigitRing allocates an all-zero ring of n digits over the alphabet
// [0, K), rejecting ring sizes outside [minN, Lanes] and K ≤ n.
func newDigitRing(n, minN, k int, d DaemonKind) digitRing {
	if n < minN || n > Lanes {
		panic(fmt.Sprintf("bitslice: ring size %d outside [%d,%d]", n, minN, Lanes))
	}
	if k <= n {
		panic(fmt.Sprintf("bitslice: need K > n, got K=%d n=%d", k, n))
	}
	planes := planesFor(k)
	r := digitRing{
		n: n, k: k, planes: planes, daemon: d,
		x:   make([]uint64, n*planes),
		kc:  make([]uint64, planes),
		inc: make([]uint64, planes),
		g:   make([]uint64, n),
		en:  make([]uint64, n),
	}
	broadcastK(r.kc, k)
	return r
}

// N returns the ring size.
func (r *digitRing) N() int { return r.n }

// K returns the digit alphabet size.
func (r *digitRing) K() int { return r.k }

// digit returns node i's plane slice.
func (r *digitRing) digit(i int) []uint64 { return r.x[i*r.planes : (i+1)*r.planes] }

// seedStreams positions lane L on SeedStream(seed, L).
//
//allocgate:hot
func (r *digitRing) seedStreams(seed int64) {
	for lane := range r.lanes {
		r.lanes[lane] = SeedStream(seed, lane)
	}
}

// seedDigit draws node i's initial digit on every lane: one draw per
// lane from that lane's own stream, and one transpose turning the 64
// residues d mod K into node i's planes. Called for nodes 0..n-1 in
// order, each lane draws exactly the scalar oracle's sequence. It
// returns the lane rows of the draws' bits 62 and 63 (SSRmin's RTS and
// TRA), gathered beside the residues rather than through the transpose
// because for K > 2⁶² the digit itself reaches bit 62.
//
//allocgate:hot
func (r *digitRing) seedDigit(i int) (b62, b63 uint64) {
	k := uint64(r.k)
	for lane := range r.draws {
		d := r.lanes[lane].Next()
		r.draws[lane] = d % k
		b62 |= d >> 62 & 1 << uint(lane)
		b63 |= d >> 63 << uint(lane)
	}
	transpose64(&r.draws, &r.coins)
	copy(r.digit(i), r.coins[:r.planes])
	return b62, b63
}

// guards evaluates every node's Dijkstra guard into r.g — x_i = x_{i-1}
// at node 0, x_i ≠ x_{i-1} elsewhere — and returns the lanes on which
// exactly one guard is up. It is the only guard pass of a step: the
// legitimacy mask and the step both read r.g.
//
//allocgate:hot
func (r *digitRing) guards() (one uint64) {
	var seen, two uint64
	pred := r.digit(r.n - 1)
	for i := 0; i < r.n; i++ {
		self := r.digit(i)
		g := eqDigit(self, pred)
		if i != 0 {
			g = ^g
		}
		r.g[i] = g
		two |= seen & g
		seen |= g
		pred = self
	}
	return seen &^ two
}

// strictForm returns the lanes whose digits are in the strict form of
// Section 2.3, given a unique guard: at node 0 the ring is constant;
// at a holder h > 0 it is (A,…,A,B,…,B) with x₀ = A, xₙ₋₁ = B, and
// needs A = B+1 mod K.
//
//allocgate:hot
func (r *digitRing) strictForm() uint64 {
	incModK(r.inc, r.digit(r.n-1), r.kc)
	return r.g[0] | eqDigit(r.digit(0), r.inc)
}

// drawCoins makes the subset daemon's one draw per lane and transposes
// the draws into per-process coin masks: coins[i] bit L is process i's
// inclusion coin on lane L.
//
//allocgate:hot
func (r *digitRing) drawCoins() {
	for lane := range r.draws {
		r.draws[lane] = r.lanes[lane].Next()
	}
	transpose64(&r.draws, &r.coins)
}

// command writes node i's Dijkstra command onto the lanes in m: a copy
// of x_{i-1}, or at node 0 r.inc, which the step sets to the pre-step
// x_{n-1} plus one mod K before it commits. Commits walk the ring
// descending, so x_{i-1} is still pre-step.
//
//allocgate:hot
func (r *digitRing) command(i int, m uint64) {
	if m == 0 {
		return
	}
	src := r.inc
	if i > 0 {
		src = r.digit(i - 1)
	}
	selDigit(r.digit(i), src, m)
}

// kernel is one algorithm's batch as run drives it.
type kernel interface {
	guards() uint64
	legitMask(one uint64) uint64
	step(active uint64) uint64
}

// run steps b until every lane either reaches a legitimate
// configuration, deadlocks, or exhausts maxSteps. It returns each
// lane's transition count at retirement — matching
// statemodel.Simulator.RunUntil(Legitimate, maxSteps) draw-for-draw —
// and the mask of lanes that converged. Each word step computes the
// guards once, for both the legitimacy test and the step.
func run(b kernel, maxSteps int) (steps [Lanes]int, converged uint64) {
	var done uint64
	for t := 0; ; t++ {
		legit := b.legitMask(b.guards())
		newly := legit &^ done
		forEachLane(newly, func(lane int) { steps[lane] = t })
		done |= newly
		converged |= newly
		if done == allLanes {
			return steps, converged
		}
		if t >= maxSteps {
			forEachLane(^done, func(lane int) { steps[lane] = maxSteps })
			return steps, converged
		}
		stuck := b.step(^done) &^ done
		forEachLane(stuck, func(lane int) { steps[lane] = t })
		done |= stuck
		if done == allLanes {
			return steps, converged
		}
	}
}
