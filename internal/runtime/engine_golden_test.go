package runtime

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"testing"

	"ssrmin/internal/core"
)

var update = flag.Bool("update", false, "rewrite the tap golden file")

// tapGoldenPath pins the engine's execution of the CST node step. The
// Reference twin runs the same node kernel as the sharded engine, so
// TestEngineMatchesReference cannot see a change to the step itself;
// this file can. It holds one FNV-64a per (case, worker count) over the
// full tap stream, Stats, Snapshots, Now and the TrackedCensus samples of
// every diffScenario seed and diffRegime. Float results may differ where
// the compiler fuses multiply-adds, so the file records the GOARCH it was
// generated on and is only compared there.
var tapGoldenPath = filepath.Join("testdata", "engine_taps_golden.json")

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

func (g *goldenHasher) u64(v uint64) {
	binary.LittleEndian.PutUint64(g.buf[:], v)
	g.h.Write(g.buf[:])
}

func (g *goldenHasher) int(v int64)     { g.u64(uint64(v)) }
func (g *goldenHasher) float(v float64) { g.u64(math.Float64bits(v)) }

func (g *goldenHasher) state(s core.State) {
	g.int(int64(s.X))
	g.int(boolBit(s.RTS))
	g.int(boolBit(s.TRA))
}

func boolBit(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// hashRun folds every observable runSetup captures into one hash.
func hashRun(r diffRun) string {
	g := &goldenHasher{h: fnv.New64a()}
	for _, tp := range r.taps {
		g.float(tp.At)
		g.int(int64(tp.Src))
		g.int(int64(tp.Ord))
		g.int(int64(tp.Kind))
		g.int(int64(tp.Peer))
		g.int(int64(tp.Rule))
	}
	st := r.stats
	for _, v := range []int64{st.Events, st.Sent, st.Carried, st.Dropped, st.Rules} {
		g.int(v)
	}
	for _, s := range r.snaps {
		g.state(s.State)
		g.state(s.CachePred)
		g.state(s.CacheSucc)
	}
	g.float(r.now)
	for _, c := range r.census {
		g.int(int64(c))
	}
	return fmt.Sprintf("%016x", g.h.Sum64())
}

// TestEngineTapGolden holds the sharded engine at one and three workers
// to the recorded hashes on the 16 diffScenario seeds and the 7
// diffRegimes.
func TestEngineTapGolden(t *testing.T) {
	type goldenCase struct {
		name    string
		setup   diffSetup
		horizon float64
	}
	var cases []goldenCase
	for seed := int64(1); seed <= 16; seed++ {
		cases = append(cases, goldenCase{fmt.Sprintf("seed %d", seed), diffScenario(seed), 2.0})
	}
	for _, r := range diffRegimes() {
		cases = append(cases, goldenCase{r.name, r.setup, r.horizon})
	}
	got := map[string]string{}
	for _, c := range cases {
		for _, w := range []int{1, 3} {
			got[fmt.Sprintf("%s/w=%d", c.name, w)] = hashRun(runSetup(t, c.name, c.setup, w, false, c.horizon))
		}
	}
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tapGolden{GOARCH: goruntime.GOARCH, Cases: got}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tapGoldenPath, buf.Bytes(), 0o644); err != nil {
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
