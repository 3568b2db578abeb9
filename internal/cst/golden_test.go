package cst

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/msgnet"
)

var update = flag.Bool("update", false, "rewrite the tap golden file")

// tapGoldenPath pins the CST node step as the msgnet tier executes it:
// one FNV-64a per case over the network tap stream, every OnExecute call
// and each node's final state, caches, neighbors and counters. The cases
// run lossy, duplicating, corrupting, jittered rings with and without a
// Hold dwell through a join/leave/splice script, so a change to cache
// delivery, the stale-frame test or rule firing moves a hash. Float
// results may differ where the compiler fuses multiply-adds, so the file
// records the GOARCH it was generated on and is only compared there.
var tapGoldenPath = filepath.Join("testdata", "cst_taps_golden.json")

// tapGolden is the golden file: the recording architecture and one hash
// per case.
type tapGolden struct {
	GOARCH string            `json:"goarch"`
	Cases  map[string]string `json:"cases"`
}

// goldenHasher folds the observables of one run into an FNV-64a.
type goldenHasher struct {
	h   hash.Hash64
	buf [8]byte
}

func newGoldenHasher() *goldenHasher { return &goldenHasher{h: fnv.New64a()} }

func (g *goldenHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *goldenHasher) int(v int)       { g.u64(uint64(int64(v))) }
func (g *goldenHasher) float(v float64) { g.u64(math.Float64bits(v)) }
func (g *goldenHasher) sum() string     { return fmt.Sprintf("%016x", g.h.Sum64()) }

func (g *goldenHasher) state(s core.State) {
	g.int(s.X)
	g.int(boolBit(s.RTS))
	g.int(boolBit(s.TRA))
}

func boolBit(b bool) int {
	if b {
		return 1
	}
	return 0
}

// goldenCase runs one seeded churn scenario and returns its hash.
func goldenCase(seed int64, hold msgnet.Time) string {
	const n, k = 6, 10
	a := core.New(n, k)
	randState := func(r *rand.Rand) core.State {
		return core.State{X: r.Intn(k), RTS: r.Intn(2) == 1, TRA: r.Intn(2) == 1}
	}
	opts := Options[core.State]{
		Link: msgnet.LinkParams{
			Delay: 0.01, Jitter: 0.004, LossProb: 0.1, DupProb: 0.15, CorruptProb: 0.05,
		},
		Refresh: 0.05,
		Seed:    seed,
		Hold:    hold,
		Spare:   1,
	}
	init := a.InitialLegitimate()
	if seed%2 == 0 {
		// Arbitrary start with incoherent caches.
		rng := rand.New(rand.NewSource(seed * 11))
		for i := range init {
			init[i] = randState(rng)
		}
		opts.RandomState = randState
	} else {
		opts.CoherentCaches = true
	}
	r := NewRing[core.State](a, init, opts)
	r.Net.LossEnabled = true
	r.Net.Corrupt = func(rng *rand.Rand, _ core.State) core.State { return randState(rng) }
	g := newGoldenHasher()
	r.Net.Tap = func(e msgnet.TapEvent) {
		g.float(float64(e.At))
		g.int(int(e.Kind))
		g.int(e.Node)
		g.int(e.From)
	}
	for i, nd := range r.Nodes {
		i := i
		nd.OnExecute = func(now msgnet.Time, rule int) {
			g.float(float64(now))
			g.int(i)
			g.int(rule)
		}
	}
	r.Net.Run(1)
	r.Join(2, core.State{X: int(seed) % k})
	r.Net.Run(2)
	r.Leave(4)
	r.Net.Run(3)
	r.Splice(0, 2)
	r.Net.Run(5)
	for _, nd := range r.Nodes {
		g.state(nd.State())
		g.state(nd.cachePred)
		g.state(nd.cacheSucc)
		p, s := nd.Neighbors()
		g.int(p)
		g.int(s)
		g.int(nd.RuleExecutions)
		g.int(nd.StaleFrames)
	}
	return g.sum()
}

// TestTapGolden holds the msgnet tier's CST execution to the recorded
// hashes: seeds 1–8, each with Hold 0 and Hold 0.02.
func TestTapGolden(t *testing.T) {
	got := map[string]string{}
	for seed := int64(1); seed <= 8; seed++ {
		for _, hold := range []msgnet.Time{0, 0.02} {
			got[fmt.Sprintf("seed %d/hold %g", seed, hold)] = goldenCase(seed, hold)
		}
	}
	if *update {
		raw, err := json.MarshalIndent(tapGolden{GOARCH: goruntime.GOARCH, Cases: got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tapGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(tapGoldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	var want tapGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", tapGoldenPath, err)
	}
	if want.GOARCH != goruntime.GOARCH {
		t.Skipf("golden recorded on %s, running on %s", want.GOARCH, goruntime.GOARCH)
	}
	if len(want.Cases) != len(got) {
		t.Errorf("golden has %d cases, run produced %d", len(want.Cases), len(got))
	}
	for name, h := range got {
		if want.Cases[name] != h {
			t.Errorf("%s: hash %s, golden %s", name, h, want.Cases[name])
		}
	}
}
