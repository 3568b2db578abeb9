package crosscheck

import (
	"fmt"
	"math/rand"
	"testing"

	"ssrmin/internal/scenario"
)

// drawTrackerScenario draws a Validate-clean scenario shaped like the
// soak stream: n 4–12, every daemon, random starts and incoherent caches,
// duplication, corruption and a loss episode on the links, and up to
// three faults among state bursts, cache corruption, paired cut/heal and
// join/leave/splice churn with a realizable plan (so rings carry spares).
func drawTrackerScenario(r *rand.Rand, i int) Scenario {
	n := 4 + i%9
	sc := Scenario{
		Name:             fmt.Sprintf("tracker-%d", i),
		N:                n,
		Seed:             1 + r.Int63n(1<<30),
		Horizon:          8,
		Daemon:           []string{"central-random", "distributed", "synchronous"}[i%3],
		Link:             scenario.Link{Delay: 0.01, Jitter: r.Float64() * 0.005, Dup: r.Float64() * 0.3, Corrupt: r.Float64() * 0.05},
		RandomStart:      r.Intn(2) == 0,
		IncoherentCaches: r.Intn(2) == 0,
		Engines:          []string{EngineState, EngineMsgnet},
	}
	if r.Intn(2) == 0 {
		sc.Link.Loss = r.Float64() * 0.2
		on := r.Float64() * 4
		sc.Faults = append(sc.Faults,
			scenario.Fault{At: 0, Type: "loss-off"},
			scenario.Fault{At: on, Type: "loss-on"},
			scenario.Fault{At: on + r.Float64()*2, Type: "loss-off"})
	}
	maxSize := n
	for f := 1 + r.Intn(3); f > 0; f-- {
		at := r.Float64() * 5
		var add []scenario.Fault
		switch r.Intn(6) {
		case 0:
			add = []scenario.Fault{{At: at, Type: "states", Count: 1 + r.Intn(n)}}
		case 1:
			add = []scenario.Fault{{At: at, Type: "caches", Count: 1 + r.Intn(n)}}
		case 2:
			link := r.Intn(n)
			add = []scenario.Fault{{At: at, Type: "cut", Link: link}, {At: at + r.Float64()*2, Type: "heal", Link: link}}
		case 3:
			add = []scenario.Fault{{At: at, Type: "join", Node: r.Intn(n)}}
		case 4:
			add = []scenario.Fault{{At: at, Type: "leave", Node: 1 + r.Intn(n-1)}}
		case 5:
			add = []scenario.Fault{{At: at, Type: "splice", Node: r.Intn(n), Count: 1 + r.Intn(2)}}
		}
		faults := append(append([]scenario.Fault(nil), sc.Faults...), add...)
		if _, size, err := scenario.ChurnPlan(n, faults); err == nil {
			sc.Faults, maxSize = faults, size
		}
	}
	sc.K = maxSize + 1 + r.Intn(3)
	return sc
}

// TestHolderTrackerMatchesRescan runs a seeded sweep of soak-like
// scenarios through the state and msgnet tiers and, at every
// observation, holds the incrementally maintained census and singleton
// holders to a full rescan (verify.Count and the core holder lists on the
// state tier, Ring.Census and Ring.Holders on msgnet).
func TestHolderTrackerMatchesRescan(t *testing.T) {
	scenarios := 96
	if testing.Short() {
		scenarios = 64
	}
	faultTypes := map[string]bool{}
	observed := map[string]int{}
	var failures []string
	holderAudit = func(engine string, at float64, trk *holderTracker, census int, prim, sec []int) {
		observed[engine]++
		if len(failures) >= 5 {
			return
		}
		gotP, gotS := trk.singletons()
		switch {
		case trk.census() != census:
			failures = append(failures, fmt.Sprintf("%s t=%v: tracked census %d, rescan %d", engine, at, trk.census(), census))
		case trk.count[slotPrimary] != len(prim) || trk.count[slotSecondary] != len(sec):
			failures = append(failures, fmt.Sprintf("%s t=%v: tracked %d primary / %d secondary holders, rescan %v / %v",
				engine, at, trk.count[slotPrimary], trk.count[slotSecondary], prim, sec))
		case !sameSingleton(gotP, prim) || !sameSingleton(gotS, sec):
			failures = append(failures, fmt.Sprintf("%s t=%v: tracked singletons %v / %v, rescan %v / %v", engine, at, gotP, gotS, prim, sec))
		}
	}
	defer func() { holderAudit = nil }()

	r := rand.New(rand.NewSource(14))
	for i := 0; i < scenarios; i++ {
		sc := drawTrackerScenario(r, i)
		for _, f := range sc.Faults {
			faultTypes[f.Type] = true
		}
		if _, err := Run(sc); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if len(failures) > 0 {
			t.Fatalf("%s (%+v):\n%v", sc.Name, sc, failures)
		}
	}
	for _, ft := range []string{"states", "caches", "cut", "heal", "loss-on", "loss-off", "join", "leave", "splice"} {
		if !faultTypes[ft] {
			t.Errorf("sweep drew no %q fault", ft)
		}
	}
	if observed[EngineState] == 0 || observed[EngineMsgnet] == 0 {
		t.Errorf("observations per tier: %v", observed)
	}
}

// sameSingleton reports whether a tracked singleton set matches a full
// holder set: equal when the full set has one member, empty otherwise.
func sameSingleton(tracked, full []int) bool {
	if len(full) != 1 {
		return len(tracked) == 0
	}
	return len(tracked) == 1 && tracked[0] == full[0]
}
