package runtime

// Stop/drain regression tests for the live tier: stopping the engine
// mid-handover — with frames in flight and injects landing — or
// cancelling its start context must drain every goroutine instead of
// leaking them, and Stop must be safe to call concurrently. Run under
// make test-race-core.

import (
	"context"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"ssrmin/internal/core"
)

// waitGoroutines polls until the goroutine count drops back to at most
// want (GC/timer goroutines wind down asynchronously after Stop).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if goruntime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := goruntime.Stack(buf, true)
	t.Fatalf("goroutines leaked: %d > %d\n%s", goruntime.NumGoroutine(), want, buf[:n])
}

// TestEngineStopDrainsWorkers: the sharded engine's pacer and worker
// loops must all exit on Stop, in both paced and fast-virtual use.
func TestEngineStopDrainsWorkers(t *testing.T) {
	before := goruntime.NumGoroutine()

	a := core.New(6, 7)
	e := NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Delay:          300 * time.Microsecond,
		Jitter:         100 * time.Microsecond,
		Refresh:        time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
		Workers:        3,
	})
	e.Start()
	for i := 0; i < 6; i++ {
		e.Inject(i, core.State{X: i, RTS: i%2 == 0})
	}
	time.Sleep(2 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop()
		}()
	}
	wg.Wait()

	// Fast-virtual mode with workers up also drains on Stop.
	e2 := NewEngine[core.State](a, a.InitialLegitimate(), Options[core.State]{
		Delay:          time.Millisecond,
		Refresh:        5 * time.Millisecond,
		Seed:           2,
		CoherentCaches: true,
		Workers:        3,
	})
	e2.RunUntil(0.5)
	e2.Stop()
	e2.Stop() // idempotent

	waitGoroutines(t, before)
}

// TestRingStopDrainsMidHandover starts a paced two-worker engine, lets
// frames pile into the links, injects faults right up to the stop, and
// then requires the pacer and worker goroutines to exit — five times
// over, so a leak per round would accumulate.
func TestRingStopDrainsMidHandover(t *testing.T) {
	before := goruntime.NumGoroutine()
	for round := 0; round < 5; round++ {
		_, e := newSSRminEngine(7, 8, Options[core.State]{
			Delay:          300 * time.Microsecond,
			Jitter:         150 * time.Microsecond,
			Refresh:        time.Millisecond,
			Seed:           int64(round + 1),
			CoherentCaches: true,
			Workers:        2,
		})
		e.Start()
		// Stop while handovers are in full swing: no settling sleep, just
		// enough traffic that links are busy when the pacer stops.
		for i := 0; i < 7; i++ {
			e.Inject(i, core.State{X: i, RTS: i%2 == 0, TRA: i%2 == 1})
		}
		time.Sleep(2 * time.Millisecond)
		e.Stop()
	}
	waitGoroutines(t, before)
}

// TestRingStopConcurrent hammers Stop from many goroutines at once on a
// single-worker paced engine, where the pacer runs every epoch itself:
// every caller must return and the race detector must stay quiet.
func TestRingStopConcurrent(t *testing.T) {
	before := goruntime.NumGoroutine()
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 1))
	e.Start()
	time.Sleep(5 * time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Stop()
		}()
	}
	wg.Wait()
	waitGoroutines(t, before)
}

// TestContextCancelStopsRing: cancelling the start context (rather than
// calling Stop) must stop the pacer.
func TestContextCancelStopsRing(t *testing.T) {
	_, e := newSSRminEngine(5, 6, pacedOpts(1, 1))
	ctx, cancel := context.WithCancel(context.Background())
	e.StartContext(ctx)
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case <-e.done:
	case <-time.After(2 * time.Second):
		t.Fatal("pacer did not exit after context cancel")
	}
	e.Stop()
}

// TestRingContextCancelDrains: after a context cancel, Stop still returns
// and drains the worker loops, leaving no goroutine behind.
func TestRingContextCancelDrains(t *testing.T) {
	before := goruntime.NumGoroutine()
	_, e := newSSRminEngine(5, 6, pacedOpts(3, 2))
	ctx, cancel := context.WithCancel(context.Background())
	e.StartContext(ctx)
	time.Sleep(10 * time.Millisecond)
	cancel()
	stopped := make(chan struct{})
	go func() { e.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return after context cancel")
	}
	waitGoroutines(t, before)
}
