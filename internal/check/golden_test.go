package check

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/statemodel"
)

var update = flag.Bool("update", false, "rewrite the convergence golden file")

// convGoldenPath holds the convergence analysis results recorded from the
// reverse-CSR parallel Kahn pass that preceded the memoized DFS. They pin
// every observable of Engine.convergence — verdict, worst case and its
// tie-break, cycle witness, edge and layer counts and the full distance
// array — so the pass that replaced it is held to the same answers. The
// file must never change without a deliberate semantic break; -update
// rewrites only the cases that ran.
var convGoldenPath = filepath.Join("testdata", "convergence_golden.json")

// convGolden is one recorded convergence analysis. IDs use the engine's
// configuration encoding; DistFNV is the FNV-64a of the distance array
// (little-endian int32 per ID), recorded for converging cases only.
type convGolden struct {
	Case         string  `json:"case"`
	Converges    bool    `json:"converges"`
	WorstSteps   int     `json:"worst_steps"`
	WorstStart   *uint64 `json:"worst_start"`
	Illegitimate uint64  `json:"illegitimate"`
	Edges        uint64  `json:"edges"`
	Layers       int     `json:"layers"`
	Cycle        *uint64 `json:"cycle"`
	DistFNV      string  `json:"dist_fnv64,omitempty"`
}

// quietMask is the Lemma 5 rule subset {1, 3, 5}.
const quietMask = 1<<core.RuleReadySecondary | 1<<core.RuleRecvSecondary | 1<<core.RuleFixNoG

// goldenCases runs every (mask, Λ) combination of one instance: the full
// rule mask and {1, 3, 5}, each over the algorithm's Λ and over Λ = ∅.
func goldenCases[S comparable](alg Space[S], legit func(statemodel.Config[S]) bool) []convGolden {
	c := New[S](alg, 0)
	e, err := c.Compile(2)
	if err != nil {
		panic(err)
	}
	lams := []struct {
		name string
		set  *IDSet
	}{
		{"lambda", e.LegitSet(legit)},
		{"empty", newIDSet(e.total)},
	}
	masks := []struct {
		name string
		bits uint32
	}{{"full", e.allRules}, {"135", quietMask}}
	var out []convGolden
	for _, m := range masks {
		for _, l := range lams {
			rep, om, stats := e.convergence(l.set, m.bits)
			g := convGolden{
				Case:         fmt.Sprintf("%s/%s/%s", alg.Name(), m.name, l.name),
				Converges:    rep.Converges,
				WorstSteps:   rep.WorstSteps,
				Illegitimate: rep.Illegitimate,
				Edges:        stats.Edges,
				Layers:       stats.Layers,
			}
			if rep.WorstStart != nil {
				id := c.Encode(rep.WorstStart)
				g.WorstStart = &id
			}
			if rep.Cycle != nil {
				id := c.Encode(rep.Cycle)
				g.Cycle = &id
			}
			if rep.Converges {
				h := fnv.New64a()
				var b [4]byte
				for _, d := range e.fullDistances(om) {
					binary.LittleEndian.PutUint32(b[:], uint32(d))
					h.Write(b[:])
				}
				g.DistFNV = fmt.Sprintf("%016x", h.Sum64())
			}
			out = append(out, g)
		}
	}
	return out
}

// TestConvergenceGolden holds Engine.convergence to the recorded results
// on SSRmin (3,4), (3,5), (4,5) and SSToken n = 3, 4, 5, each under the
// full and the {1, 3, 5} rule mask, over Λ and over Λ = ∅. SSRmin (5,6)
// joins when SSRMIN_EXHAUSTIVE_N5 is set.
func TestConvergenceGolden(t *testing.T) {
	var got []convGolden
	for _, nk := range [][2]int{{3, 4}, {3, 5}, {4, 5}} {
		a := core.New(nk[0], nk[1])
		got = append(got, goldenCases[core.State](a, a.Legitimate)...)
	}
	for _, n := range []int{3, 4, 5} {
		a := dijkstra.New(n, n+1)
		got = append(got, goldenCases[dijkstra.State](a, a.Legitimate)...)
	}
	if os.Getenv("SSRMIN_EXHAUSTIVE_N5") != "" {
		a := core.New(5, 6)
		got = append(got, goldenCases[core.State](a, a.Legitimate)...)
	}

	want := map[string]convGolden{}
	if raw, err := os.ReadFile(convGoldenPath); err == nil {
		var recs []convGolden
		if err := json.Unmarshal(raw, &recs); err != nil {
			t.Fatalf("%s: %v", convGoldenPath, err)
		}
		for _, r := range recs {
			want[r.Case] = r
		}
	} else if !*update {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}

	if *update {
		for _, g := range got {
			want[g.Case] = g
		}
		recs := make([]convGolden, 0, len(want))
		for _, r := range want {
			recs = append(recs, r)
		}
		sort.Slice(recs, func(i, j int) bool { return recs[i].Case < recs[j].Case })
		raw, err := json.MarshalIndent(recs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(convGoldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for _, g := range got {
		w, ok := want[g.Case]
		if !ok {
			t.Errorf("%s: no golden record", g.Case)
			continue
		}
		gj, _ := json.Marshal(g)
		wj, _ := json.Marshal(w)
		if string(gj) != string(wj) {
			t.Errorf("%s:\n got  %s\n want %s", g.Case, gj, wj)
		}
	}
}
