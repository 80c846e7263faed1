package solver

import (
	"time"

	"compsynth/internal/obs"
)

// Metrics bundles the registry instruments of the solver layer. The
// effort counters (samples, repairs, boxes, ...) are read-through
// views over a Stats — the hot path keeps bumping the same atomics it
// always has, and the registry reads them at scrape time — while the
// search-level counters and the latency histogram are written once per
// search, far off the hot path.
//
// A nil *Metrics disables everything (System methods guard the clock
// reads behind a nil check), so instrumentation costs nothing when
// observability is off.
type Metrics struct {
	candidateSearches   *obs.Counter
	distinguishSearches *obs.Counter
	diverseSearches     *obs.Counter
	bestEffortSearches  *obs.Counter
	satVerdicts         *obs.Counter
	unsatVerdicts       *obs.Counter
	unknownVerdicts     *obs.Counter
	searchSeconds       *obs.Histogram
	// pruneDepth distributes branch-and-prune boxes over frontier depth
	// (one observation per processed box, bulked per wave). Deep tails
	// mean the constraint surface resists interval refutation.
	pruneDepth *obs.Histogram
	// seededDepth distributes learned-cache box hits over frontier
	// depth: at which depths cached facts displaced cold evaluation.
	// Mass at shallow depths means whole early waves are replayed from
	// the cache; empty means the cache is cold or detached.
	seededDepth *obs.Histogram
}

// NewMetrics registers the solver instruments on the registry and, if
// stats is non-nil, read-through counter views over its atomics.
// Returns nil when reg is nil.
func NewMetrics(reg *obs.Registry, stats *Stats) *Metrics {
	if reg == nil {
		return nil
	}
	if stats != nil {
		view := func(name, help string, load func() int64) {
			reg.CounterFunc(name, help, func() float64 { return float64(load()) })
		}
		view("compsynth_solver_samples_total", "uniform random hole vectors evaluated", stats.Samples.Load)
		view("compsynth_solver_repairs_total", "hinge-loss repair descents started", stats.Repairs.Load)
		view("compsynth_solver_boxes_total", "branch-and-prune boxes processed", stats.Boxes.Load)
		view("compsynth_solver_boxes_pruned_total", "branch-and-prune boxes refuted by interval bounds", stats.BoxesPruned.Load)
		view("compsynth_solver_prune_steals_total", "work-stealing span steals in the parallel prune engine", stats.Steals.Load)
		view("compsynth_solver_hint_hits_total", "warm-start hints that were directly feasible", stats.HintHits.Load)
		view("compsynth_solver_spec_compiles_total", "constraint difference programs compiled", stats.SpecCompiles.Load)
		view("compsynth_solver_spec_cache_hits_total", "constraint compilations served from the pair cache", stats.SpecCacheHits.Load)
		view("compsynth_solver_batched_evals_total", "constraint lane evaluations through the batched SoA interpreters", stats.BatchedEvals.Load)
		view("compsynth_solver_scalar_evals_total", "batch-pipeline lane evaluations that fell back to scalar evaluation", stats.ScalarEvals.Load)
		view("compsynth_solver_repair_evals_total", "constraint programs evaluated by hinge-loss repair", stats.RepairEvals.Load)
	}
	return &Metrics{
		candidateSearches:   reg.Counter("compsynth_solver_candidate_searches_total", "FindCandidate searches run"),
		distinguishSearches: reg.Counter("compsynth_solver_distinguish_searches_total", "distinguishing-query searches run"),
		diverseSearches:     reg.Counter("compsynth_solver_diverse_searches_total", "FindDiverse searches run"),
		bestEffortSearches:  reg.Counter("compsynth_solver_best_effort_searches_total", "BestEffort searches run"),
		satVerdicts:         reg.Counter("compsynth_solver_sat_total", "searches ending sat"),
		unsatVerdicts:       reg.Counter("compsynth_solver_unsat_total", "searches ending unsat"),
		unknownVerdicts:     reg.Counter("compsynth_solver_unknown_total", "searches ending unknown"),
		searchSeconds:       reg.Histogram("compsynth_solver_search_seconds", "per-search wall-clock latency", obs.SecondsBuckets()),
		pruneDepth:          reg.Histogram("compsynth_solver_prune_depth", "branch-and-prune frontier depth per box processed", obs.ExpBuckets(1, 2, 10)),
		seededDepth:         reg.Histogram("compsynth_solver_seeded_wave_depth", "frontier depth of boxes served from the learned-prune cache", obs.ExpBuckets(1, 2, 10)),
	}
}

// RegisterLearnedMetrics registers read-through views over a learned
// cache's counters, mirroring the Stats views in NewMetrics. Safe to
// call with either argument nil.
func RegisterLearnedMetrics(reg *obs.Registry, l *Learned) {
	if reg == nil || l == nil {
		return
	}
	view := func(name, help string, load func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(load()) })
	}
	view("compsynth_solver_learned_box_hits_total", "prune boxes served from the learned cache", l.boxHits.Load)
	view("compsynth_solver_learned_box_misses_total", "prune boxes evaluated cold and recorded", l.boxMisses.Load)
	view("compsynth_solver_learned_delta_refutes_total", "cached undecided boxes refuted by delta-checking newly added constraints", l.deltaRefutes.Load)
	view("compsynth_solver_learned_point_hits_total", "hint points skipped via cached Satisfies failures", l.pointHits.Load)
	view("compsynth_solver_learned_invalidations_total", "constraint removals that bumped the cache epoch", l.invalidations.Load)
	reg.GaugeFunc("compsynth_solver_learned_entries", "live box entries in the learned cache", func() float64 {
		return float64(l.Len())
	})
}

// observePruneDepth records `boxes` processed boxes at one frontier
// depth — called once per wave, off the box-evaluation hot path.
func (m *Metrics) observePruneDepth(depth, boxes int) {
	if m == nil {
		return
	}
	m.pruneDepth.ObserveN(float64(depth), int64(boxes))
}

// observeSeededDepth records `hits` learned-cache hits at one frontier
// depth — called once per wave when any box was served from the cache.
func (m *Metrics) observeSeededDepth(depth int, hits int64) {
	if m == nil {
		return
	}
	m.seededDepth.ObserveN(float64(depth), hits)
}

// observe records one completed search. kind is nil when the search
// has no per-kind counter; st < 0 means "no verdict" (BestEffort,
// FindDiverse).
func (m *Metrics) observe(kind *obs.Counter, d time.Duration, st Status, hasStatus bool) {
	if m == nil {
		return
	}
	kind.Inc()
	m.searchSeconds.Observe(d.Seconds())
	if !hasStatus {
		return
	}
	switch st {
	case StatusSat:
		m.satVerdicts.Inc()
	case StatusUnsat:
		m.unsatVerdicts.Inc()
	case StatusUnknown:
		m.unknownVerdicts.Inc()
	}
}
