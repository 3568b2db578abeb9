package runtime

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"ssrmin/internal/core"
)

// newTestShard returns a lone shard whose calendar is set up as freeze
// sets up a 64-node arc.
func newTestShard(delay, jitter, refresh float64) *engShard[int] {
	sh := &engShard[int]{}
	sh.cal.init(delay, jitter, refresh, 64)
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

// sortedByKey returns recs in (at, key2) order.
func sortedByKey(recs []eventRec[int]) []eventRec[int] {
	out := slices.Clone(recs)
	slices.SortFunc(out, recCmp[int])
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

// TestCalendarDrainOrder: random records — many sharing an at, so the
// key2 tie-break and the in-bin sort both matter, some crowding one bin
// past the insertion-sort size, one epoch crowded enough to be split
// into time slices — come out in (at, key2) order, each in the epoch
// holding its time.
func TestCalendarDrainOrder(t *testing.T) {
	const delay, horizon = 0.01, 0.3
	rng := rand.New(rand.NewSource(1))
	sh := newTestShard(delay, 0.004, 0.05)
	var recs []eventRec[int]
	for i := 0; i < 20000; i++ {
		at := rng.Float64() * horizon
		switch i % 5 {
		case 0:
			at = float64(rng.Intn(30)) * delay / 3 // equal-at ties, some on boundaries
		case 1:
			at = 0.125 // one crowded bin
		case 2, 3:
			at = 0.2 + rng.Float64()*delay // one crowded epoch
		}
		rec := eventRec[int]{at: at, key2: rng.Uint64(), node: int32(i % 64), payload: i}
		recs = append(recs, rec)
		sh.push(rec)
	}
	sameRecs(t, runEpochs(t, sh, delay, horizon+delay, nil), sortedByKey(recs))
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
	sameRecs(t, got, sortedByKey(want))
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
	sameRecs(t, runEpochs(t, sh, delay, 13, nil), sortedByKey(want))
	if len(sh.cal.ovf) != 0 {
		t.Fatalf("%d records left in the overflow list", len(sh.cal.ovf))
	}
}

// TestCalendarLateMerge: with Refresh < Delay a dispatched timer re-arms
// inside the open epoch; the re-armed record must be dispatched in the
// same epoch, merged into the run in (at, key2) order.
func TestCalendarLateMerge(t *testing.T) {
	const delay, refresh, until = 0.01, 0.003, 0.5
	sh := newTestShard(delay, 0, refresh)
	rng := rand.New(rand.NewSource(3))
	var want []eventRec[int]
	seq := uint64(0)
	push := func(rec eventRec[int]) {
		rec.key2 = uint64(rec.node)<<32 | seq
		seq++
		want = append(want, rec)
		sh.push(rec)
	}
	for i := 0; i < 20; i++ {
		push(eventRec[int]{at: refresh * rng.Float64(), node: int32(i), kind: evTimer})
		push(eventRec[int]{at: until * rng.Float64(), node: int32(i), kind: evDeliver})
	}
	var got []eventRec[int]
	for lo, horizon := 0.0, delay; lo < until; lo, horizon = horizon, horizon+delay {
		if !sh.cal.open(horizon) {
			t.Fatalf("calendar refused epoch horizon %v", horizon)
		}
		sh.cal.reserve()
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
	sameRecs(t, got, sortedByKey(want))
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
	sameRecs(t, runEpochs(t, sh, delay, float64(total)*delay, nil), sortedByKey(want))
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
