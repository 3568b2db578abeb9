// Package runtime executes CST-transformed ring algorithms as a live
// system on the sharded event-loop Engine (engine.go): worker loops own
// contiguous ring arcs and simulate link delay, jitter and loss in virtual
// time, which RunUntil advances as fast as the CPU allows and Start paces
// 1:1 against the wall clock. It is the deployment the discrete-event
// simulation (internal/cst over internal/msgnet) models, and what the
// paper's motivating application — a self-organizing camera network with
// continuous coverage — runs on.
//
// Faithfulness to the paper's network model:
//
//   - Links carry one message per direction at a time: sends into a busy
//     link are dropped, never queued unboundedly.
//   - Each node keeps caches of its neighbors' states and announces its
//     own state on change and periodically (Algorithm 4).
//   - Token conditions are evaluated on the node's own state and caches.
package runtime

import (
	"math/rand"
	"time"
)

// Options configures an Engine.
type Options[S comparable] struct {
	// Delay is the base link propagation delay.
	Delay time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// LossProb is the per-message loss probability.
	LossProb float64
	// Refresh is the periodic state-announcement interval.
	Refresh time.Duration
	// Seed drives all randomness (per-node and per-link PRNG streams are
	// derived from it).
	Seed int64
	// CoherentCaches seeds caches with true neighbor states; otherwise
	// RandomState (or the node's own state) seeds them.
	CoherentCaches bool
	// RandomState draws arbitrary states for incoherent cache seeding.
	RandomState func(*rand.Rand) S
	// Workers sets the worker loop count (0 means GOMAXPROCS, clamped to
	// [1, n]).
	Workers int
	// Spare preallocates dormant extra nodes (ids n..n+Spare-1) for
	// mid-run ScheduleJoin churn; an engine with spares or scheduled churn
	// runs on one worker (the shard arcs assume a static ring).
	Spare int
}

// Snapshot is one node's view: its own state and its neighbor caches.
type Snapshot[S comparable] struct {
	// State is the node's local state q_i.
	State S
	// CachePred is Z_i[v_{i-1}], CacheSucc is Z_i[v_{i+1}].
	CachePred, CacheSucc S
}

// CensusStats summarizes a sampling run of WatchCensus.
type CensusStats struct {
	// Samples is the number of observations taken.
	Samples int
	// Min and Max are the extreme censuses observed.
	Min, Max int
	// At counts observations per census value.
	At map[int]int
	// DistinctHolders counts how many distinct nodes were ever privileged.
	DistinctHolders int
}
