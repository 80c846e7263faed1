package experiments

import "testing"

// effortSeeds is the pinned seed set of the effort benchmark: the gate
// compares a fixed workload, not a statistical estimate, so the
// queries/run metric is bit-reproducible across hosts (the synthesizer
// is deterministic for a fixed seed).
const effortSeeds = 3

// benchmarkQueriesToConvergence runs the pinned fast-mode Table 1
// workload to convergence and reports oracle effort and repair work as
// custom metrics.
// cmd/effortgate diffs queries/run against the BENCH_solver.json
// archive; `make bench-json` is what refreshes the archive.
func benchmarkQueriesToConvergence(b *testing.B, disablePlanner bool) {
	seeds := effortSeeds
	if testing.Short() {
		seeds = 1 // bench-smoke compile check, not a measurement
	}
	var queries, iters, evals, runs float64
	for i := 0; i < b.N; i++ {
		for s := 1; s <= seeds; s++ {
			res, err := RunOnce(RunConfig{Fast: true, Seed: int64(s), DisablePlanner: disablePlanner})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Converged {
				b.Fatalf("seed %d did not converge", s)
			}
			// "Fewer queries" only counts at unchanged result quality:
			// the synthesized objective must still agree with the ground
			// truth on (almost) every strict probe pair.
			if res.Agreement < 0.95 {
				b.Fatalf("seed %d converged to a degraded objective (agreement %.3f)", s, res.Agreement)
			}
			queries += float64(res.Queries)
			iters += float64(res.Iterations)
			evals += float64(res.Solver.RepairEvals)
			runs++
		}
	}
	b.ReportMetric(queries/runs, "queries/run")
	b.ReportMetric(iters/runs, "iterations/run")
	// The repair layer's deterministic work counter: wall time on a
	// shared host is noisy, this count is not.
	b.ReportMetric(evals/runs, "repair-evals/run")
}

// BenchmarkQueriesToConvergence measures oracle queries to convergence
// on the pinned Table 1 workload, planner on versus off. The two arms
// archive together so BENCH_solver.json always documents the planner's
// current saving next to the baseline it replaces.
func BenchmarkQueriesToConvergence(b *testing.B) {
	for _, arm := range []struct {
		name    string
		disable bool
	}{{"planner=on", false}, {"planner=off", true}} {
		b.Run(arm.name, func(b *testing.B) {
			benchmarkQueriesToConvergence(b, arm.disable)
		})
	}
}
