// Command modelcheck exhaustively verifies the paper's lemmas on small
// SSRmin (and SSToken) instances by walking the full configuration space
// under the unfair distributed daemon:
//
//   - Lemma 1  (closure): every successor of a legitimate configuration is
//     legitimate, and exactly one process is enabled in Λ.
//   - Lemma 4  (no deadlock): every configuration has an enabled process.
//   - Lemma 5  (quiet bound): executions using only Rules 1/3/5 are finite
//     and at most 3n steps long.
//   - Lemma 6 / Theorem 2 (convergence): no execution avoids Λ forever;
//     the exact worst-case stabilization time is reported.
//   - Theorem 1: 1 ≤ privileged ≤ 2 in every legitimate configuration.
//
// By default the checks run on the table-compiled ID-space engine
// (internal/check.Engine): guards and commands are compiled once into
// per-class transition tables and every pass works on dense uint64
// configuration IDs. The full-space scans are sharded across -workers
// goroutines; the quiet-run and convergence longest-path analyses are a
// sequential memoized depth-first search that stores no edge and ranges
// over the orbits of the counter shift X ↦ X+1 mod K, a symmetry the
// engine finds in the compiled tables (the convergence lines print it).
// That makes the n=5, K=6 instance (24⁵ ≈ 7.96M configurations)
// exhaustively checkable in about a second and ~20 MiB, and n=6, K=7
// (28⁶ ≈ 482M, with -max-configs 600000000) in minutes. -legacy selects
// the original Decode/Encode path (the differential baseline).
//
// The process exits non-zero on any lemma violation, so `make modelcheck`
// can gate CI.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ssrmin/internal/check"
	"ssrmin/internal/cliconf"
	"ssrmin/internal/core"
	"ssrmin/internal/dijkstra"
	"ssrmin/internal/inclusion"
	"ssrmin/internal/statemodel"
)

func main() {
	var (
		n       = flag.Int("n", 3, "ring size")
		k       = flag.Int("k", 0, "counter space K (default n+1)")
		algF    = flag.String("alg", "ssrmin", "algorithm: ssrmin | sstoken")
		maxConf = flag.Uint64("max-configs", 50_000_000, "refuse spaces larger than this")
		workers = flag.Int("workers", 0, "parallel workers for the engine's full-space scans (0 = GOMAXPROCS)")
		legacy  = flag.Bool("legacy", false, "use the legacy Decode/Encode checker instead of the compiled engine")
	)
	var prof cliconf.Profile
	prof.Bind(flag.CommandLine)
	flag.Parse()
	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	parallelWorkers = *workers
	if *k == 0 {
		*k = *n + 1
	}

	ok := true
	switch *algF {
	case "ssrmin":
		if *legacy {
			ok = checkSSRminLegacy(*n, *k, *maxConf)
		} else {
			ok = checkSSRmin(*n, *k, *maxConf, *workers)
		}
	case "sstoken":
		if *legacy {
			ok = checkSSTokenLegacy(*n, *k, *maxConf)
		} else {
			ok = checkSSToken(*n, *k, *maxConf, *workers)
		}
	default:
		prof.Stop()
		fmt.Fprintf(os.Stderr, "unknown algorithm %q\n", *algF)
		os.Exit(2)
	}
	// os.Exit skips deferred calls: flush the profiles before gating CI.
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
	if !ok {
		os.Exit(1)
	}
}

// parallelWorkers configures the worker pool of the legacy path's
// embarrassingly parallel scans.
var parallelWorkers int

// phase prints one check's verdict with its wall time and throughput in
// configurations per second.
func phase(name string, pass bool, detail string, configs uint64, dt time.Duration) {
	verdict := "PASS"
	if !pass {
		verdict = "FAIL"
	}
	rate := float64(configs) / dt.Seconds()
	fmt.Printf("%s %-44s [%8v  %10.3g cfg/s]", verdict, name+": "+detail, dt.Round(time.Millisecond), rate)
	fmt.Println()
}

// printQuotient reports the symmetry the convergence search used.
func printQuotient(stats check.ConvStats) {
	fmt.Printf("     value-shift quotient: K=%d, %s orbits\n", stats.ShiftOrder, grouped(stats.Orbits))
}

// grouped formats v with comma thousands separators.
func grouped(v uint64) string {
	s := fmt.Sprint(v)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

func checkSSRmin(n, k int, maxConf uint64, workers int) bool {
	a := core.New(n, k)
	c := check.New[core.State](a, maxConf)
	total := c.NumConfigs()

	start := time.Now()
	eng, err := c.Compile(workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "table compilation failed: %v\n", err)
		return false
	}
	fmt.Printf("== %s: |Γ| = %d configurations, %d workers, tables compiled in %v ==\n",
		a.Name(), total, eng.Workers(), time.Since(start).Round(time.Millisecond))
	ok := true

	start = time.Now()
	lam := eng.LegitSet(a.Legitimate)
	fmt.Printf("     Λ bitmap built: |Λ| = %d                       [%8v  %10.3g cfg/s]\n",
		lam.Count(), time.Since(start).Round(time.Millisecond), float64(total)/time.Since(start).Seconds())

	start = time.Now()
	cex, fine := eng.CheckNoDeadlock()
	phase("Lemma 4 (no deadlock)", fine, "every config enabled", total, time.Since(start))
	if !fine {
		fmt.Printf("     deadlocked at %v\n", cex)
		ok = false
	}

	start = time.Now()
	rep := eng.CheckClosure(lam)
	closureOK := rep.Counterexample == nil && rep.MaxEnabled == 1
	phase("Lemma 1 (closure)", closureOK,
		fmt.Sprintf("|Λ| = %d, max enabled %d", rep.Legitimate, rep.MaxEnabled), rep.Legitimate, time.Since(start))
	if rep.Counterexample != nil {
		fmt.Printf("     counterexample %v -> %v\n", rep.Counterexample, rep.Successor)
	}
	ok = ok && closureOK

	// Theorem 1 via the compiled census of the mutual-inclusion layer:
	// token predicates evaluated by table probes over Λ's IDs.
	start = time.Now()
	ct := inclusion.CompileCensus(a.AllStates(), n, core.HasPrimary, core.HasSecondary)
	censusOK := true
	var badID uint64
	var triples []uint32
	lam.ForEach(func(id uint64) bool {
		triples = eng.Triples(id, triples)
		p, s, priv := ct.Counts(triples)
		if !(p == 1 && s == 1 && priv >= 1 && priv <= 2) {
			censusOK, badID = false, id
			return false
		}
		return true
	})
	phase("Theorem 1 (1 ≤ privileged ≤ 2 in Λ)", censusOK, "compiled census", lam.Count(), time.Since(start))
	if !censusOK {
		fmt.Printf("     violated at %v\n", c.Decode(badID))
		ok = false
	}

	start = time.Now()
	steps, from, fine := eng.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	quietOK := fine && steps <= 3*n
	phase("Lemma 5 (quiet bound)", quietOK,
		fmt.Sprintf("longest {1,3,5}-run %d ≤ 3n = %d", steps, 3*n), total, time.Since(start))
	if !fine {
		fmt.Printf("     infinite quiet execution from %v\n", from)
	} else if steps > 3*n {
		fmt.Printf("     quiet execution of %d steps from %v\n", steps, from)
	}
	ok = ok && quietOK

	start = time.Now()
	conv, stats := eng.CheckConvergence(lam)
	convOK := conv.Converges && conv.WorstSteps <= a.ConvergenceStepBound()
	phase("Lemma 6/Theorem 2 (convergence)", convOK,
		fmt.Sprintf("worst %d ≤ 63n²+4 = %d", conv.WorstSteps, a.ConvergenceStepBound()), total, time.Since(start))
	if !conv.Converges {
		fmt.Printf("     cycle through %v\n", conv.Cycle)
	} else {
		fmt.Printf("     |Γ∖Λ| = %d, worst start %v, graph edges %d, %d layers, bookkeeping %.1f MiB\n",
			conv.Illegitimate, conv.WorstStart, stats.Edges, stats.Layers,
			float64(stats.BookkeepingBytes)/(1<<20))
	}
	printQuotient(stats)
	return ok && convOK
}

func checkSSToken(n, k int, maxConf uint64, workers int) bool {
	a := dijkstra.New(n, k)
	c := check.New[dijkstra.State](a, maxConf)
	total := c.NumConfigs()
	eng, err := c.Compile(workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "table compilation failed: %v\n", err)
		return false
	}
	fmt.Printf("== %s: |Γ| = %d configurations, %d workers ==\n", a.Name(), total, eng.Workers())
	ok := true

	start := time.Now()
	lam := eng.LegitSet(a.Legitimate)
	cex, fine := eng.CheckNoDeadlock()
	phase("no deadlock", fine, "every config enabled", total, time.Since(start))
	if !fine {
		fmt.Printf("     deadlocked at %v\n", cex)
		ok = false
	}

	start = time.Now()
	rep := eng.CheckClosure(lam)
	phase("closure", rep.Counterexample == nil,
		fmt.Sprintf("|Λ| = %d, max enabled %d", rep.Legitimate, rep.MaxEnabled), rep.Legitimate, time.Since(start))
	if rep.Counterexample != nil {
		fmt.Printf("     counterexample %v -> %v\n", rep.Counterexample, rep.Successor)
		ok = false
	}

	start = time.Now()
	conv, stats := eng.CheckConvergence(lam)
	convOK := conv.Converges
	phase("convergence", convOK,
		fmt.Sprintf("worst %d (bound 3n(n−1)/2 = %d)", conv.WorstSteps, a.ConvergenceBound()), total, time.Since(start))
	if !conv.Converges {
		fmt.Printf("     cycle through %v\n", conv.Cycle)
	} else {
		fmt.Printf("     |Γ∖Λ| = %d, edges %d, %d layers, bookkeeping %.1f MiB\n",
			conv.Illegitimate, stats.Edges, stats.Layers, float64(stats.BookkeepingBytes)/(1<<20))
	}
	printQuotient(stats)
	return ok && convOK
}

func checkSSRminLegacy(n, k int, maxConf uint64) bool {
	a := core.New(n, k)
	c := check.New[core.State](a, maxConf)
	fmt.Printf("== %s (legacy path): |Γ| = %d configurations ==\n", a.Name(), c.NumConfigs())
	ok := true

	start := time.Now()
	if cex, fine := c.CheckNoDeadlockParallel(parallelWorkers); !fine {
		fmt.Printf("FAIL Lemma 4 (no deadlock): deadlocked at %v\n", cex)
		ok = false
	} else {
		fmt.Printf("PASS Lemma 4 (no deadlock)                         [%v]\n", time.Since(start).Round(time.Millisecond))
	}

	start = time.Now()
	rep := c.CheckClosure(a.Legitimate)
	switch {
	case rep.Counterexample != nil:
		fmt.Printf("FAIL Lemma 1 (closure): %v -> %v\n", rep.Counterexample, rep.Successor)
		ok = false
	case rep.MaxEnabled != 1:
		fmt.Printf("FAIL Lemma 1: %d processes enabled in some legitimate configuration\n", rep.MaxEnabled)
		ok = false
	default:
		fmt.Printf("PASS Lemma 1 (closure): |Λ| = %d, exactly 1 enabled [%v]\n",
			rep.Legitimate, time.Since(start).Round(time.Millisecond))
	}

	start = time.Now()
	if cex, fine := c.CheckInvariantOnLegitimate(a.Legitimate, func(cfg statemodel.Config[core.State]) bool {
		p, s, t := len(a.PrimaryHolders(cfg)), len(a.SecondaryHolders(cfg)), len(a.TokenHolders(cfg))
		return p == 1 && s == 1 && t >= 1 && t <= 2
	}); !fine {
		fmt.Printf("FAIL Theorem 1 (token bounds) at %v\n", cex)
		ok = false
	} else {
		fmt.Printf("PASS Theorem 1 (1 ≤ privileged ≤ 2 in Λ)           [%v]\n", time.Since(start).Round(time.Millisecond))
	}

	start = time.Now()
	steps, from, fine := c.LongestRestricted(map[int]bool{
		core.RuleReadySecondary: true, core.RuleRecvSecondary: true, core.RuleFixNoG: true,
	})
	if !fine {
		fmt.Printf("FAIL Lemma 5: infinite quiet execution from %v\n", from)
		ok = false
	} else if steps > 3*n {
		fmt.Printf("FAIL Lemma 5: quiet execution of %d steps exceeds 3n = %d (from %v)\n", steps, 3*n, from)
		ok = false
	} else {
		fmt.Printf("PASS Lemma 5: longest quiet execution %d ≤ 3n = %d  [%v]\n",
			steps, 3*n, time.Since(start).Round(time.Millisecond))
	}

	start = time.Now()
	conv := c.CheckConvergence(a.Legitimate)
	if !conv.Converges {
		fmt.Printf("FAIL Lemma 6 (convergence): cycle through %v\n", conv.Cycle)
		ok = false
	} else {
		fmt.Printf("PASS Lemma 6/Theorem 2: worst-case stabilization = %d steps (from %v), |Γ∖Λ| = %d [%v]\n",
			conv.WorstSteps, conv.WorstStart, conv.Illegitimate, time.Since(start).Round(time.Millisecond))
	}
	return ok
}

func checkSSTokenLegacy(n, k int, maxConf uint64) bool {
	a := dijkstra.New(n, k)
	c := check.New[dijkstra.State](a, maxConf)
	fmt.Printf("== %s (legacy path): |Γ| = %d configurations ==\n", a.Name(), c.NumConfigs())
	ok := true

	if cex, fine := c.CheckNoDeadlock(); !fine {
		fmt.Printf("FAIL no-deadlock: %v\n", cex)
		ok = false
	} else {
		fmt.Println("PASS no-deadlock")
	}
	rep := c.CheckClosure(a.Legitimate)
	if rep.Counterexample != nil {
		fmt.Printf("FAIL closure: %v -> %v\n", rep.Counterexample, rep.Successor)
		ok = false
	} else {
		fmt.Printf("PASS closure: |Λ| = %d, max enabled = %d\n", rep.Legitimate, rep.MaxEnabled)
	}
	conv := c.CheckConvergence(a.Legitimate)
	if !conv.Converges {
		fmt.Printf("FAIL convergence: cycle through %v\n", conv.Cycle)
		ok = false
	} else {
		fmt.Printf("PASS convergence: worst case %d steps (bound 3n(n−1)/2 = %d)\n",
			conv.WorstSteps, a.ConvergenceBound())
	}
	return ok
}
