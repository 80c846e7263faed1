package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"

	"compsynth/internal/obs"
)

// observer is the process-wide observability attachment for experiment
// runs. Experiment harnesses run many sequential synthesis sessions;
// a single shared Observer lets a live `-obs` endpoint watch the whole
// campaign. Registry func-metrics re-register per run, re-pointing the
// solver/sketch views at the current session (func replacement is the
// registry's documented behavior for exactly this).
var observer atomic.Pointer[obs.Observer]

// SetObserver attaches (or, with nil, detaches) the Observer used by
// all subsequent RunOnce calls. Safe to call concurrently with runs;
// each run reads it once at start.
func SetObserver(o *obs.Observer) {
	observer.Store(o)
}

// Observer returns the attachment installed by SetObserver (nil when
// detached) — binaries use it to serve the sidecar they just wired.
func Observer() *obs.Observer {
	return observer.Load()
}

// plannerOff is the campaign-wide default for the active query
// planner, set by the CLI's -planner flag. Like the observer it is
// process-wide: experiment harnesses run many sequential sessions and
// the planner choice applies to all of them.
var plannerOff atomic.Bool

// SetPlannerOff selects the campaign-wide planner default for
// subsequent runs: true falls back to the seed's
// first-distinguishing-pair behavior.
func SetPlannerOff(off bool) {
	plannerOff.Store(off)
}

// PlannerOff reports the default installed by SetPlannerOff.
func PlannerOff() bool {
	return plannerOff.Load()
}

// FormatEffort renders per-run effort accounting (oracle time and
// solver search counters) as a table — the `-effort` view.
func FormatEffort(results []RunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %6s %8s %10s %10s %10s %12s %10s %8s %10s\n",
		"run", "iters", "queries", "oracle s", "samples", "repairs", "repair-evals", "boxes", "spec", "spec-hits")
	for i, r := range results {
		fmt.Fprintf(&b, "%-4d %6d %8d %10.4f %10d %10d %12d %10d %8d %10d\n",
			i+1, r.Iterations, r.Queries, r.OracleSec,
			r.Solver.Samples, r.Solver.Repairs, r.Solver.RepairEvals, r.Solver.Boxes,
			r.Solver.SpecCompiles, r.Solver.SpecCacheHits)
	}
	return b.String()
}
