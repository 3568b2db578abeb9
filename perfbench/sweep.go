package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"ssrmin/internal/bitslice"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/parsweep"
)

// The sweep-conv workload: the fig12/fig13 batch sweep. Each round fans
// sweepBatches 64-lane batches of every (algorithm, n) cell over the
// parsweep workers, SSRmin and SSToken under the subset daemon with
// K = n+1 and the step budgets of the batchconv experiment.

// sweepNs are the ring sizes, largest first so the long batches are
// handed out before the short ones.
var sweepNs = []int{64, 32, 16, 8}

// sweepBatches is the number of batches per cell and round.
const sweepBatches = 8

// sweepAlg is one sweep target.
type sweepAlg struct {
	name     string
	maxSteps func(n, k int) int
	// build returns a seeded batch's Run method.
	build  func(n, k int, seed int64) func(maxSteps int) ([bitslice.Lanes]int, uint64)
	scalar func(n, k int, kind bitslice.DaemonKind, seed int64, lane, maxSteps int) (int, bool)
}

var sweepAlgs = []sweepAlg{
	{
		name:     "ssrmin",
		maxSteps: func(n, k int) int { return core.New(n, k).ConvergenceStepBound() },
		build: func(n, k int, seed int64) func(int) ([bitslice.Lanes]int, uint64) {
			b := bitslice.NewSSRmin(n, k, bitslice.Subset)
			b.SeedLanes(seed)
			return b.Run
		},
		scalar: bitslice.ScalarSSRminRun,
	},
	{
		name:     "sstoken",
		maxSteps: func(n, k int) int { return 3 * dijkstra.New(n, k).ConvergenceBound() },
		build: func(n, k int, seed int64) func(int) ([bitslice.Lanes]int, uint64) {
			b := bitslice.NewSSToken(n, k, bitslice.Subset)
			b.SeedLanes(seed)
			return b.Run
		},
		scalar: bitslice.ScalarSSTokenRun,
	},
}

// sweepCell is one (algorithm, n) pair of a round.
type sweepCell struct {
	alg      *sweepAlg
	n, k     int
	maxSteps int
}

func sweepCells() []sweepCell {
	var cells []sweepCell
	for _, n := range sweepNs {
		for i := range sweepAlgs {
			a := &sweepAlgs[i]
			cells = append(cells, sweepCell{alg: a, n: n, k: n + 1, maxSteps: a.maxSteps(n, n+1)})
		}
	}
	return cells
}

// batchSeed derives a batch's seed from the workload seed, so distinct
// workload seeds never share a batch.
func batchSeed(seed int64, round, job int) int64 {
	return seed<<32 | int64(round*len(sweepNs)*len(sweepAlgs)*sweepBatches+job)
}

// batchOut is one batch's result.
type batchOut struct {
	steps     [bitslice.Lanes]int
	converged uint64
}

// sweepRound is one round's outcome.
type sweepRound struct {
	batches []batchOut // cell-major, sweepBatches per cell
	wall    time.Duration
	busy    time.Duration // summed per-batch worker time
}

// runRound runs one round over the cells on `workers` parsweep workers.
func runRound(cells []sweepCell, seed int64, round, workers int, tr *tracer) sweepRound {
	root := tr.begin("parsweep.map", -1)
	start := time.Now()
	type job struct {
		out  batchOut
		busy time.Duration
	}
	jobs := parsweep.Map(len(cells)*sweepBatches, workers, func(j int) job {
		c := cells[j/sweepBatches]
		t0 := time.Now()
		sp := tr.begin("bitslice.build", root)
		run := c.alg.build(c.n, c.k, batchSeed(seed, round, j))
		tr.end(sp)
		sp = tr.begin("bitslice.run", root)
		steps, conv := run(c.maxSteps)
		tr.end(sp)
		return job{batchOut{steps, conv}, time.Since(t0)}
	})
	r := sweepRound{wall: time.Since(start)}
	tr.end(root)
	for _, j := range jobs {
		r.batches = append(r.batches, j.out)
		r.busy += j.busy
	}
	return r
}

// cellDigests folds a round's step counts into one digest per cell.
func cellDigests(cells []sweepCell, r sweepRound) []uint64 {
	out := make([]uint64, len(cells))
	for ci := range cells {
		d := newDigest()
		for _, b := range r.batches[ci*sweepBatches : (ci+1)*sweepBatches] {
			for _, s := range b.steps {
				d.add(int64(s))
			}
			d.add(int64(b.converged))
		}
		out[ci] = d.h
	}
	return out
}

// wordSteps returns the number of word steps a batch took: the step index
// at which its slowest lane retired.
func wordSteps(b batchOut) int {
	m := 0
	for _, s := range b.steps {
		if s > m {
			m = s
		}
	}
	return m
}

// sweepPass accumulates one pass's rounds: per-round seeds/s and cell
// digests, the first round (replayed by the oracle), and the lane, word
// and time totals of the per-layer metrics.
type sweepPass struct {
	rates                   []float64
	digests                 [][]uint64
	first                   sweepRound
	laneSteps, words, seeds int
	wall, busy              time.Duration
}

func (p *sweepPass) add(cells []sweepCell, r sweepRound) {
	p.rates = append(p.rates, float64(len(r.batches)*bitslice.Lanes)/r.wall.Seconds())
	p.digests = append(p.digests, cellDigests(cells, r))
	p.wall += r.wall
	p.busy += r.busy
	for _, b := range r.batches {
		for _, s := range b.steps {
			p.laneSteps += s
		}
		p.words += wordSteps(b)
		p.seeds += bitslice.Lanes
	}
}

// sweepRefSeed is the workload seed of the pinned reference round.
const sweepRefSeed = 1

// sweepRefDigests pins round 0 at sweepRefSeed, in sweepCells order
// (n = 64, 32, 16, 8; SSRmin before SSToken), and sweepRefWordSteps its
// total word steps.
var sweepRefDigests = []uint64{
	0xeff7557c835c4750, 0x2ac88aca539750ba,
	0x8d5050e5859270f2, 0xbd49ce9948a13b0c,
	0x709ec84a476d078b, 0x72e3b0c10483c308,
	0x3e13704ebc44911b, 0x6ba108e40934dd5b,
}

const sweepRefWordSteps = 8025

// oracleLanes are the lanes of each cell's first batch that are replayed
// through the scalar statemodel oracle.
var oracleLanes = []int{0, 37, 63}

func runSweep(rc runConfig) (*outcome, error) {
	o := newOutcome(rc.log)

	// Set-up: the cell table and step budgets, then the pinned reference
	// round, which also warms the kernels before the measured rounds. It
	// runs on one worker: its outputs do not depend on the worker count,
	// and a single worker times it without scheduling noise.
	var cells []sweepCell
	var ref sweepRound
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		cells = sweepCells()
		ref = runRound(cells, sweepRefSeed, 0, 1, nil)
		setups = append(setups, time.Since(start).Seconds())
	}
	got := cellDigests(cells, ref)
	ws := 0
	for _, b := range ref.batches {
		ws += wordSteps(b)
	}
	for ci, c := range cells {
		o.expect(got[ci] == sweepRefDigests[ci], "%s n=%d reference digest %#x, pinned %#x",
			c.alg.name, c.n, got[ci], sweepRefDigests[ci])
	}
	o.expect(ws == sweepRefWordSteps, "reference round word steps %d, pinned %d", ws, sweepRefWordSteps)
	// The repeated set-ups' garbage goes back to the OS before measuring.
	debug.FreeOSMemory()

	// pass runs rounds until the budget is spent. Every lane is one
	// operation; a lane fails when it does not converge within the step
	// budget.
	pass := func(tr *tracer) sweepPass {
		var p sweepPass
		for start := time.Now(); len(p.rates) == 0 || time.Since(start) < rc.seconds; {
			round := len(p.rates)
			r := runRound(cells, rc.seed, round, rc.workers, tr)
			if round == 0 {
				p.first = r
			}
			p.add(cells, r)
			o.attempted += int64(len(r.batches) * bitslice.Lanes)
			for bi, b := range r.batches {
				for lane, s := range b.steps {
					if b.converged>>uint(lane)&1 == 0 {
						c := cells[bi/sweepBatches]
						o.fail("%s n=%d round %d batch %d lane %d: no convergence in %d steps", c.alg.name, c.n, round, bi, lane, s)
					}
				}
			}
		}
		return p
	}
	untraced := pass(nil)
	rate := median(untraced.rates)
	run := make([]uint64, len(cells))
	for ci := range cells {
		d := newDigest()
		for _, r := range untraced.digests {
			d.add(int64(r[ci]))
		}
		run[ci] = d.h
	}
	fmt.Fprintf(rc.log, "cell digests over %d rounds: %x\n", len(untraced.digests), run)
	o.metrics["setup_s"] = median(setups)
	o.metrics["items_per_s"] = rate
	o.metrics["peak_rss_mib"] = peakRSSMiB()

	// The run's own lanes against the scalar oracle, lane for lane.
	var oracleSteps int
	var oracleTime time.Duration
	for ci, c := range cells {
		b := untraced.first.batches[ci*sweepBatches]
		for _, lane := range oracleLanes {
			start := time.Now()
			steps, ok := c.alg.scalar(c.n, c.k, bitslice.Subset, batchSeed(rc.seed, 0, ci*sweepBatches), lane, c.maxSteps)
			oracleTime += time.Since(start)
			oracleSteps += steps
			o.expect(steps == b.steps[lane] && ok == (b.converged>>uint(lane)&1 == 1),
				"%s n=%d lane %d: batch %d steps, scalar oracle %d (converged %v)", c.alg.name, c.n, lane, b.steps[lane], steps, ok)
		}
	}

	if rc.tr == nil {
		return o, nil
	}

	traced := pass(rc.tr)
	for i := range traced.digests {
		if i < len(untraced.digests) {
			for ci, d := range traced.digests[i] {
				o.expect(d == untraced.digests[i][ci], "round %d cell %d: traced digest %#x, untraced %#x", i, ci, d, untraced.digests[i][ci])
			}
		}
	}
	self := selfByName(rc.tr.snapshot())
	perK := 1000 / float64(traced.seeds)
	o.metrics["bitslice.build_s"] = self["bitslice.build"] * perK
	o.metrics["bitslice.run_s"] = self["bitslice.run"] * perK
	o.metrics["bitslice.lane_util"] = float64(traced.laneSteps) / float64(traced.words*bitslice.Lanes)
	o.metrics["bitslice.word_steps"] = float64(ws)
	o.metrics["parsweep.idle_frac"] = 1 - traced.busy.Seconds()/(traced.wall.Seconds()*float64(rc.workers))
	o.metrics["statemodel.oracle_steps_per_s"] = float64(oracleSteps) / oracleTime.Seconds()
	o.metrics["trace.overhead_frac"] = overhead(rate, median(traced.rates))
	return o, nil
}
