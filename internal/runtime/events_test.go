package runtime

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ssrmin/internal/core"
)

// newTestShard returns a lone shard whose calendar is set up as freeze
// sets up the 64-node arc [0, 64).
func newTestShard(delay, jitter, refresh float64) *engShard[int] {
	return newArcShard(delay, jitter, refresh, 0, 64)
}

// newArcShard returns a lone shard owning the arc [lo, lo+nodes).
func newArcShard(delay, jitter, refresh float64, lo int32, nodes int) *engShard[int] {
	sh := &engShard[int]{}
	sh.cal.init(delay, jitter, refresh, lo, nodes)
	return sh
}

// runEpochs opens and closes the shard's epochs from the calendar's
// current one, with horizons accumulated exactly as stepEpoch
// accumulates them, until an epoch starts at or past until. It returns
// the records in dispatch order and fails the test if one is dispatched
// outside the epoch whose span holds its time. before, when non-nil,
// runs ahead of each epoch (as the SPSC drain does).
func runEpochs(t *testing.T, sh *engShard[int], delay, until float64, before func(lo, horizon float64)) []eventRec[int] {
	t.Helper()
	var out []eventRec[int]
	for lo, horizon := sh.cal.lo, sh.cal.hz[sh.cal.cur&sh.cal.mask]; lo < until; lo, horizon = horizon, horizon+delay {
		if before != nil {
			before(lo, horizon)
		}
		if !sh.cal.open(horizon) {
			t.Fatalf("calendar refused epoch horizon %v", horizon)
		}
		sh.cal.reserve()
		var rec eventRec[int]
		for sh.pop(&rec) {
			if rec.at < lo || rec.at >= horizon {
				t.Fatalf("record at %v (key2 %d) dispatched in epoch [%v, %v)", rec.at, rec.key2, lo, horizon)
			}
			out = append(out, rec)
		}
		sh.cal.close()
	}
	return out
}

// sortedByKey returns recs in dispatch order: by epoch, with the epoch
// horizons accumulated from 0 in steps of delay as stepEpoch accumulates
// them, then by (node, at, key2) inside an epoch.
func sortedByKey(recs []eventRec[int], delay float64) []eventRec[int] {
	type keyed struct {
		epoch int
		rec   eventRec[int]
	}
	last := slices.MaxFunc(recs, func(a, b eventRec[int]) int { return cmp.Compare(a.at, b.at) }).at
	var hs []float64
	for h := 0.0; h <= last; {
		h += delay
		hs = append(hs, h)
	}
	ks := make([]keyed, len(recs))
	for i, rec := range recs {
		k, on := slices.BinarySearch(hs, rec.at)
		if on {
			k++ // a record on a horizon opens the next epoch
		}
		ks[i] = keyed{k, rec}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if a.epoch != b.epoch {
			return a.epoch - b.epoch
		}
		return recCmp(a.rec, b.rec)
	})
	out := make([]eventRec[int], len(ks))
	for i := range ks {
		out[i] = ks[i].rec
	}
	return out
}

func sameRecs(t *testing.T, got, want []eventRec[int]) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("dispatched %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestCalendarDrainOrder: random records over an arc that does not start
// at node 0 — many sharing a node and an at, so the key2 tie-break and
// the in-bin sort both matter, some crowding one node's bin past the
// insertion-sort size, one epoch crowded enough to be split into node
// slices, sparse epochs whose bins each span several nodes — come out
// epoch by epoch, each epoch in (node, at, key2) order, each record in
// the epoch holding its time.
func TestCalendarDrainOrder(t *testing.T) {
	const delay, horizon = 0.01, 0.3
	const lo, nodes = 1000, 700
	rng := rand.New(rand.NewSource(1))
	sh := newArcShard(delay, 0.004, 0.05, lo, nodes)
	var recs []eventRec[int]
	for i := 0; i < 20000; i++ {
		at := rng.Float64() * horizon
		node := lo + int32(rng.Intn(nodes))
		switch i % 5 {
		case 0:
			at = float64(rng.Intn(30)) * delay / 3 // equal-at ties, some on boundaries
			node = lo + int32(rng.Intn(8))
		case 1:
			at, node = 0.125, lo+nodes/2 // one crowded bin
		case 2, 3:
			at = 0.2 + rng.Float64()*delay // one crowded epoch
		}
		rec := eventRec[int]{at: at, key2: rng.Uint64(), node: node, payload: i}
		recs = append(recs, rec)
		sh.push(rec)
	}
	sameRecs(t, runEpochs(t, sh, delay, horizon+delay, nil), sortedByKey(recs, delay))
}

// TestCalendarEpochBoundaries: with a Delay that is not representable in
// binary, the accumulated horizons drift away from k·Delay; records
// sitting exactly on a horizon, or one ulp either side of it, must still
// be dispatched by the epoch whose span holds them — filed up front
// (through the overflow list) and filed a few epochs ahead alike.
func TestCalendarEpochBoundaries(t *testing.T) {
	const delay, epochs = 0.007, 20000
	var hs []float64
	for h, k := 0.0, 0; k < epochs; k++ {
		h += delay
		hs = append(hs, h)
	}
	drift := 0
	for k, h := range hs {
		if h != float64(k+1)*delay {
			drift++
		}
	}
	if drift == 0 {
		t.Fatal("accumulated horizons never left k·Delay; the test exercises nothing")
	}
	sh := newTestShard(delay, 0, delay)
	var want []eventRec[int]
	add := func(at float64) {
		rec := eventRec[int]{at: at, key2: uint64(len(want)), payload: len(want)}
		want = append(want, rec)
		sh.push(rec)
	}
	// Up front: every 97th horizon, far beyond the window.
	for k := 0; k < epochs-10; k += 97 {
		add(hs[k])
		add(math.Nextafter(hs[k], 0))
		add(math.Nextafter(hs[k], 1))
	}
	// Ahead: at each epoch k, the horizon of epoch k+2 and the ulp below
	// it, which belong to the last two epochs of the window.
	got := runEpochs(t, sh, delay, hs[epochs-1], func(lo, horizon float64) {
		k, found := slices.BinarySearch(hs, horizon)
		if !found {
			t.Fatalf("epoch horizon %v is not an accumulated horizon", horizon)
		}
		if k+2 < epochs-10 {
			add(hs[k+2])
			add(math.Nextafter(hs[k+2], 0))
		}
	})
	if len(sh.cal.ovf) != 0 {
		t.Fatalf("%d records left in the overflow list", len(sh.cal.ovf))
	}
	sameRecs(t, got, sortedByKey(want, delay))
}

// TestCalendarFarFuture: records far beyond the window (a ScheduleInject
// at t=5s, a refresh period far above Delay) wait in the overflow list
// and survive every window advance until their epoch.
func TestCalendarFarFuture(t *testing.T) {
	const delay = 0.01
	sh := newTestShard(delay, 0, 10)
	if w := sh.cal.mask + 1; w != maxWindow {
		t.Fatalf("window %d, want the %d cap for Refresh = 1000·Delay", w, maxWindow)
	}
	var want []eventRec[int]
	for i, at := range []float64{5, 0.005, 12.34, 0.9, 5, 3.2, 0.64, 0.65, 7.777} {
		rec := eventRec[int]{at: at, key2: uint64(i), payload: i}
		want = append(want, rec)
		sh.push(rec)
	}
	if len(sh.cal.ovf) == 0 {
		t.Fatal("no record went to the overflow list")
	}
	sameRecs(t, runEpochs(t, sh, delay, 13, nil), sortedByKey(want, delay))
	if len(sh.cal.ovf) != 0 {
		t.Fatalf("%d records left in the overflow list", len(sh.cal.ovf))
	}
}

// TestCalendarLateMerge: with Refresh < Delay a dispatched timer re-arms
// inside the open epoch; the re-armed record must be dispatched in the
// same epoch, merged into the runs in (node, at, key2) order — after its
// node's earlier records, before the next node's — across the slice
// boundaries of a bucket crowded enough to be split.
func TestCalendarLateMerge(t *testing.T) {
	const delay, refresh, until = 0.01, 0.003, 0.5
	const nodes = 1500
	sh := newArcShard(delay, 0, refresh, 0, nodes)
	rng := rand.New(rand.NewSource(3))
	var want []eventRec[int]
	seq := uint64(0)
	push := func(rec eventRec[int]) {
		rec.key2 = uint64(rec.node)<<32 | seq
		seq++
		want = append(want, rec)
		sh.push(rec)
	}
	for i := 0; i < nodes; i++ {
		push(eventRec[int]{at: refresh * rng.Float64(), node: int32(i), kind: evTimer})
		push(eventRec[int]{at: until * rng.Float64(), node: int32(i), kind: evDeliver})
	}
	sliced := false
	var got []eventRec[int]
	for lo, horizon := 0.0, delay; lo < until; lo, horizon = horizon, horizon+delay {
		if !sh.cal.open(horizon) {
			t.Fatalf("calendar refused epoch horizon %v", horizon)
		}
		sh.cal.reserve()
		sliced = sliced || len(sh.cal.slices) > 1
		var rec eventRec[int]
		for sh.pop(&rec) {
			got = append(got, rec)
			if rec.kind == evTimer && rec.at+refresh < until {
				push(eventRec[int]{at: rec.at + refresh, node: rec.node, kind: evTimer})
			}
		}
		sh.cal.close()
	}
	if len(sh.cal.late) != 0 {
		t.Fatal("late list not reset at close")
	}
	if !sliced {
		t.Fatal("no epoch was split into node slices; the test exercises nothing")
	}
	sameRecs(t, got, sortedByKey(want, delay))
}

// FuzzCalendarOrder drives one shard's calendar with random records over
// a random arc and, while each epoch is open, with the pushes dispatch
// makes: re-armed timers of the node being dispatched, which may fall
// inside the open epoch, and frames for any node of the arc at least one
// Delay out. Every epoch must hand out its nodes in ascending order and
// each node's records in (at, key2) order, each record in the epoch whose
// span holds its time, and every record exactly once.
func FuzzCalendarOrder(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(64), uint16(300), uint8(64), uint8(3))
	f.Add(int64(2), uint16(500), uint16(3000), uint16(6000), uint8(200), uint8(0))
	f.Add(int64(3), uint16(7), uint16(1), uint16(2000), uint8(255), uint8(9))
	f.Add(int64(4), uint16(40000), uint16(900), uint16(40), uint8(16), uint8(31))
	f.Fuzz(func(t *testing.T, seed int64, lo, nodes, count uint16, lateP, refreshStep uint8) {
		const delay, jitter, span = 0.01, 0.005, 0.2
		arc := int(nodes)%4096 + 1
		refresh := float64(refreshStep%32+1) * delay / 8 // Delay/8 to 4·Delay
		rng := rand.New(rand.NewSource(seed))
		sh := newArcShard(delay, jitter, refresh, int32(lo), arc)
		seq := map[int32]uint32{}
		var pushed []eventRec[int]
		last := 0.0
		push := func(node int32, at float64) {
			rec := eventRec[int]{at: at, key2: uint64(node)<<32 | uint64(seq[node]), node: node, payload: len(pushed)}
			seq[node]++
			pushed = append(pushed, rec)
			last = max(last, at)
			sh.push(rec)
		}
		node := func() int32 { return int32(lo) + int32(rng.Intn(arc)) }
		for i := 0; i < int(count)%8192; i++ {
			at := rng.Float64() * span
			if i%4 == 0 {
				at = float64(rng.Intn(40)) * delay / 4 // ties, some on horizons
			}
			push(node(), at)
		}
		budget := 4*len(pushed) + 64
		seen := make([]int, 0, budget)
		for start, horizon := 0.0, delay; start <= last; start, horizon = horizon, horizon+delay {
			if !sh.cal.open(horizon) {
				t.Fatalf("calendar refused epoch horizon %v", horizon)
			}
			sh.cal.reserve()
			var rec, prev eventRec[int]
			for first := true; sh.pop(&rec); first = false {
				if rec.at < start || rec.at >= horizon {
					t.Fatalf("record at %v dispatched in epoch [%v, %v)", rec.at, start, horizon)
				}
				if !first {
					if rec.node < prev.node {
						t.Fatalf("node %d dispatched after node %d in epoch [%v, %v)", rec.node, prev.node, start, horizon)
					}
					if rec.node == prev.node && (rec.at < prev.at || rec.at == prev.at && rec.key2 <= prev.key2) {
						t.Fatalf("node %d: record (%v, %x) dispatched after (%v, %x)", rec.node, rec.at, rec.key2, prev.at, prev.key2)
					}
				}
				prev = rec
				seen = append(seen, rec.payload)
				if len(pushed) >= budget {
					continue
				}
				if rng.Intn(256) < int(lateP) {
					push(rec.node, rec.at+refresh*rng.Float64())
				}
				if rng.Intn(256) < int(lateP) {
					push(node(), rec.at+delay+jitter*rng.Float64())
				}
			}
			sh.cal.close()
		}
		if len(seen) != len(pushed) {
			t.Fatalf("dispatched %d records, pushed %d", len(seen), len(pushed))
		}
		slices.Sort(seen)
		for i, id := range seen {
			if id != i {
				t.Fatalf("record %d lost or duplicated", i)
			}
		}
	})
}

// TestSPSCOverflowDrain regression-tests the overflow growth path: a
// backlog far beyond the fixed ring (the delay ≫ epoch shape that used
// to panic on the 17th push) spills into the overflow stack, and a
// single drain files every record into the calendar bucket of its epoch,
// from which it is dispatched in (at, key2) order.
func TestSPSCOverflowDrain(t *testing.T) {
	const delay = 0.01
	q := &spsc[int]{}
	const total = 3*spscCap + 5
	var want []eventRec[int]
	for i := 0; i < total; i++ {
		rec := eventRec[int]{at: float64(total-i) * delay / 4, key2: uint64(i), payload: i}
		want = append(want, rec)
		q.pushRing(rec)
		if i < spscCap && q.ovf.Load() != nil {
			t.Fatalf("push %d spilled to the overflow stack while the ring had room", i)
		}
	}
	if q.ovf.Load() == nil {
		t.Fatalf("pushing %d records never engaged the overflow stack", total)
	}
	sh := newTestShard(delay, 0, 20*delay)
	q.drainInto(sh)
	if q.ovf.Load() != nil {
		t.Fatal("drainInto left records on the overflow stack")
	}
	sameRecs(t, runEpochs(t, sh, delay, float64(total)*delay, nil), sortedByKey(want, delay))
}

// TestSPSCOverflowConcurrent races one producer against one consumer
// across the ring/overflow boundary; under -race this pins the
// CAS-push / Swap-drain protocol on the overflow stack. The consumer
// drains ahead of every epoch, as shardEpoch does, and every record
// reaches the epoch holding its time exactly once.
func TestSPSCOverflowConcurrent(t *testing.T) {
	const delay, total = 0.01, 20000
	q := &spsc[int]{}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			q.pushRing(eventRec[int]{at: 1 + float64(i)*1e-4, key2: uint64(i), payload: i})
		}
	}()
	sh := newTestShard(delay, 0, delay)
	// Epochs up to t=0.5 drain while the producer runs; the rest, after
	// it finished, drain whatever is left. Every record is due at t >= 1,
	// so none is drained after its epoch opened.
	got := runEpochs(t, sh, delay, 0.5, func(lo, horizon float64) { q.drainInto(sh) })
	if len(got) != 0 {
		t.Fatalf("%d records dispatched before their time", len(got))
	}
	wg.Wait()
	q.drainInto(sh)
	got = runEpochs(t, sh, delay, 3, nil)
	seen := make([]bool, total)
	for _, rec := range got {
		if rec.payload < 0 || rec.payload >= total || seen[rec.payload] {
			t.Fatalf("record %d duplicated or out of range", rec.payload)
		}
		seen[rec.payload] = true
	}
	if len(got) != total {
		t.Fatalf("dispatched %d records, want %d", len(got), total)
	}
}

// TestEngineSteadyStateZeroAlloc pins the hot path's allocation budget:
// once the calendar's pool and buffers have grown to the ring's working
// set, advancing a 10k-node single-worker engine by one epoch allocates
// nothing.
func TestEngineSteadyStateZeroAlloc(t *testing.T) {
	const n = 10000
	a := core.New(n, n+1)
	e := NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Delay:          10 * time.Millisecond,
		Jitter:         2 * time.Millisecond,
		Refresh:        50 * time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
		Workers:        1,
	})
	e.RunUntil(1)
	delay := e.delay
	if allocs := testing.AllocsPerRun(50, func() { e.RunUntil(e.Now() + delay) }); allocs != 0 {
		t.Fatalf("RunUntil(Now()+Delay) allocated %v times per epoch in steady state", allocs)
	}
}
