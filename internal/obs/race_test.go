package obs_test

// Race coverage for the observer: every counter, histogram and the sink
// must tolerate concurrent emitters. The live engine is the real
// producer — its worker loops, one per ring arc, all emit into one
// Observer — so the first test drives an actual two-worker engine under
// -race; the second hammers the full method surface from bare goroutines.

import (
	"io"
	"sync"
	"testing"
	"time"

	"ssrmin/internal/core"
	"ssrmin/internal/obs"
	"ssrmin/internal/runtime"
)

func TestObserverRaceLiveRing(t *testing.T) {
	o := obs.New(obs.NewJSONL(io.Discard))
	alg := core.New(6, 7)
	e := runtime.NewEngine[core.State](alg, alg.InitialLegitimate(), runtime.Options[core.State]{
		Delay:          10 * time.Millisecond,
		Jitter:         5 * time.Millisecond,
		LossProb:       0.05,
		Refresh:        50 * time.Millisecond,
		Seed:           1,
		CoherentCaches: true,
		Workers:        2,
	})
	e.SetObserver(o, core.HasToken)
	e.RunUntil(5)
	e.Stop()

	if e.Workers() != 2 {
		t.Fatalf("engine resolved %d workers, want 2 concurrent producers", e.Workers())
	}
	if o.C.MsgRecv.Load() == 0 {
		t.Error("live engine emitted no MsgRecv")
	}
	if o.C.RuleFired.Load() == 0 {
		t.Error("live engine emitted no RuleFired")
	}
	if o.C.Handovers.Load() == 0 {
		t.Error("live engine emitted no Handover")
	}
}

func TestObserverRaceAllMethods(t *testing.T) {
	o := obs.New(obs.NewJSONL(io.Discard))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				t := float64(i)
				o.Step(t, 1)
				o.RuleFired(t, g, 1+i%5)
				o.TokenMoved(t, g, (g+1)%8)
				o.Handover(t, g, i%2 == 0)
				o.MsgSent(t, g, (g+1)%8)
				o.MsgRecv(t, (g+1)%8, g)
				o.MsgDropped(t, (g+1)%8, g)
				o.ConvergedAt(t, i)
			}
		}(g)
	}
	// A concurrent reader exercises the snapshot paths under -race too.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			o.WriteText(io.Discard)
			o.Vars()
		}
	}()
	wg.Wait()

	if got := o.C.Steps.Load(); got != 8*500 {
		t.Errorf("Steps = %d, want %d", got, 8*500)
	}
	if got := o.C.MsgSent.Load(); got != 8*500 {
		t.Errorf("MsgSent = %d, want %d", got, 8*500)
	}
}
