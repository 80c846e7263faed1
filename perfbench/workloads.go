package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"compsynth/internal/obs"
	"compsynth/internal/solver"
)

func newReport() *report {
	return &report{metrics: map[string]float64{}, bases: map[string]string{}, context: map[string]any{}}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// table1Phase is one timed stretch of sessions.
type table1Phase struct {
	timing
	sums []summary
	errs []error
	tm   sessionTimes
}

// runTable1 measures table1-fast (fast) or table1-paper.
func runTable1(o options, fast bool) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	// Set-up: there is nothing to bring up besides the session itself, so
	// set-up is the untimed warm-up session, repeated for the median.
	var setups []float64
	var warm summary
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		out, err := runStepper(ctx, fast, o.seeds[0], nil, &sessionTimes{}, nil)
		if err != nil {
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		warm = out
	}
	rep.metrics["setup_s"] = median(setups)
	rep.context["setup_s_each"] = setups

	phase := func(dur time.Duration, reg *obs.Registry, rec *recorder) table1Phase {
		var ph table1Phase
		ph.timing = runTimed(o, dur, func(seed int64) {
			out, err := runStepper(ctx, fast, seed, reg, &ph.tm, rec)
			if err != nil {
				ph.errs = append(ph.errs, err)
				return
			}
			ph.sums = append(ph.sums, out)
		})
		return ph
	}

	var timed, traced table1Phase
	var reg *obs.Registry
	var rec *recorder
	if o.trace {
		timed = phase(seconds(o.seconds/2), nil, nil)
		reg, rec = obs.NewRegistry(), newRecorder()
		traced = phase(seconds(o.seconds/2), reg, rec)
	} else {
		timed = phase(seconds(o.seconds), nil, nil)
	}

	// Output checks, after the timed region: every session, the warm-up
	// included, converged and reproduced the batch synthesizer's run of
	// its seed (same queries, same final hole vector).
	refs, err := table1References(fast, o.seeds)
	if err != nil {
		return nil, err
	}
	check := func(s summary) bool {
		r := refs[s.seed]
		switch {
		case !s.converged:
			rep.fail("seed %d did not converge", s.seed)
		case s.queries != r.queries || !slices.Equal(s.final, r.final):
			rep.fail("seed %d: Stepper session (%d queries) differs from the batch run (%d queries)", s.seed, s.queries, r.queries)
		case r.agreement < minSessionAgreement:
			rep.fail("seed %d agreement %.4f below %.2f", s.seed, r.agreement, minSessionAgreement)
		default:
			return true
		}
		return false
	}
	check(warm)
	var agrSum float64
	ok := 0
	all := append(slices.Clone(timed.sums), traced.sums...)
	for _, s := range all {
		if check(s) {
			ok++
		}
		agrSum += refs[s.seed].agreement
	}
	rep.tally(o.workload, timed.attempted+traced.attempted, ok, agrSum, len(all), append(timed.errs, traced.errs...))
	queries := 0
	for _, s := range timed.sums {
		queries += s.queries
	}
	rep.throughput(timed.timing, len(timed.sums), queries)
	if !o.trace {
		if err := latencyMetrics(rep, &timed.tm); err != nil {
			return nil, err
		}
		return rep, rep.scaleToReference(timed.ref, true)
	}
	table1Layers(rep, &timed, &traced, reg, rec)
	return rep, nil
}

// tally closes the output checks: the failure count, success_frac over
// the sessions attempted, and agreement_mean over the sessions checked.
func (rep *report) tally(workload string, attempted, ok int, agreementSum float64, checked int, errs []error) {
	for _, err := range errs {
		rep.fail("%v", err)
	}
	rep.attempted = attempted
	rep.failed = attempted - ok
	rep.metrics["success_frac"] = ratio(float64(ok), float64(attempted))
	mean := ratio(agreementSum, float64(checked))
	rep.metrics["agreement_mean"] = mean
	if floor := minMeanAgreement[workload]; mean < floor {
		rep.fail("agreement_mean %.4f below %.3f", mean, floor)
	}
}

// throughput reports the timed phase's rate and costs per session, and
// the run's peak RSS.
func (rep *report) throughput(t timing, sessions, queries int) {
	n := float64(sessions)
	rep.metrics["sessions_per_s"] = t.rate(sessions)
	rep.metrics["cpu_ms_per_session"] = ratio(float64(t.cpu)/float64(time.Millisecond), n)
	rep.metrics["queries_per_session"] = ratio(float64(queries), n)
	rep.metrics["rss_mb"] = peakRSSMB()
	rep.context["sessions"] = sessions
	rep.context["pass_s"] = t.passS
	rep.context["timed_s"] = t.wall.Seconds()
}

// regValue reads a counter, or a histogram's sum, from a registry.
func regValue(reg *obs.Registry, name string) float64 {
	switch v := reg.Snapshot()[name].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	case map[string]any:
		s, _ := v["sum"].(float64)
		return s
	}
	return 0
}

// table1Layers fills the per-layer metrics from the traced phase.
func table1Layers(rep *report, untraced, ph *table1Phase, reg *obs.Registry, rec *recorder) {
	l := layers{rep, len(ph.sums)}
	var stepSum time.Duration
	for _, d := range ph.tm.step {
		stepSum += d
	}
	search := regValue(reg, "compsynth_solver_search_seconds")
	ackLayers(rep, &ph.tm)
	percentileOr0(rep, "core.step_ms_p50", ms(ph.tm.step), 0.5)
	percentileOr0(rep, "core.step_ms_p90", ms(ph.tm.step), 0.9)
	l.per("core.step_s_per_session", stepSum.Seconds())
	l.per("core.new_ms_per_session", float64(ph.tm.newStepper)/float64(time.Millisecond))
	var eff solver.StatsSnapshot
	iters, edges := 0, 0
	for _, s := range ph.sums {
		iters += s.iterations
		edges += s.edges
		sumEffort(&eff, &s.stats)
	}
	l.per("core.iterations_per_session", float64(iters))
	l.per("core.rebuilds_per_session", regValue(reg, "compsynth_core_system_rebuilds_total"))
	l.per("core.self_ms_per_session", (stepSum.Seconds()-search)*1000)
	l.per("solver.search_s_per_session", search)
	l.share("solver.search_share", search, stepSum.Seconds(), "s of core.step")
	sat := regValue(reg, "compsynth_solver_sat_total")
	searches := sat + regValue(reg, "compsynth_solver_unsat_total") + regValue(reg, "compsynth_solver_unknown_total")
	l.share("solver.sat_ratio", sat, searches, "searches")
	l.effort(eff)
	l.per("prefgraph.edges_per_session", float64(edges))
	percentileOr0(rep, "oracle.answer_us_p50", us(ph.tm.oracle), 0.5)
	traceOverhead(rep, untraced.timing, ph.timing, len(untraced.sums), len(ph.sums))
	hostSpeedLayer(rep, ph.ref)
	rep.spans = rec.all()
	rep.table = spanTable(rep.spans)
}

// layers records per-layer metrics with their bases.
type layers struct {
	rep      *report
	sessions int
}

// per reports a total per session.
func (l layers) per(name string, total float64) {
	l.rep.metrics[name] = ratio(total, float64(l.sessions))
	l.rep.bases[name] = fmt.Sprintf("%d sessions", l.sessions)
}

// share reports num/den and names the base.
func (l layers) share(name string, num, den float64, what string) {
	l.rep.metrics[name] = ratio(num, den)
	l.rep.bases[name] = fmt.Sprintf("of %.6g %s", den, what)
}

// effort fills the metrics taken from solver.Stats counters.
func (l layers) effort(eff solver.StatsSnapshot) {
	l.per("solver.samples_per_session", float64(eff.Samples))
	l.per("solver.repairs_per_session", float64(eff.Repairs))
	l.per("solver.hint_hits_per_session", float64(eff.HintHits))
	l.per("solver.boxes_per_session", float64(eff.Boxes))
	l.per("expr.batched_evals_per_session", float64(eff.BatchedEvals))
	l.per("expr.scalar_evals_per_session", float64(eff.ScalarEvals))
	l.share("expr.batched_share", float64(eff.BatchedEvals), float64(eff.BatchedEvals+eff.ScalarEvals), "lane evaluations")
	l.per("sketch.spec_compiles_per_session", float64(eff.SpecCompiles))
	l.share("sketch.spec_cache_hit_ratio", float64(eff.SpecCacheHits), float64(eff.SpecCacheHits+eff.SpecCompiles), "spec lookups")
}

// traceOverhead compares the two halves of a traced run at reference
// speed, each half by its own kernel median, so that host drift between
// the halves does not read as tracing overhead.
func traceOverhead(rep *report, u, t timing, nu, nt int) {
	untraced := u.rate(nu) * slowness(u.ref)
	traced := t.rate(nt) * slowness(t.ref)
	rep.metrics["trace.untraced_sessions_per_s"] = untraced
	rep.bases["trace.untraced_sessions_per_s"] = fmt.Sprintf("%d sessions, first half of the run, at reference speed", nu)
	rep.metrics["trace.traced_sessions_per_s"] = traced
	rep.bases["trace.traced_sessions_per_s"] = fmt.Sprintf("%d sessions, second half of the run, at reference speed", nt)
	rep.metrics["trace.overhead_share"] = 1 - ratio(traced, untraced)
	rep.bases["trace.overhead_share"] = "1 - traced/untraced sessions_per_s"
}

// hostSpeedLayer reports the reference kernel's median time in the traced
// phase: the host speed the run's unscaled times were taken at.
func hostSpeedLayer(rep *report, ref []time.Duration) {
	rep.metrics["host.ref_kernel_ms_p50"] = median(ms(ref))
	rep.bases["host.ref_kernel_ms_p50"] = fmt.Sprintf("%d kernel runs, one after each session", len(ref))
}

// spanTable summarizes spans by name and route: count, median duration,
// and total and self time (the duration not covered by child spans).
func spanTable(spans []span) []string {
	kids := children(spans)
	type agg struct {
		durs        []float64
		total, self time.Duration
	}
	groups := map[string]*agg{}
	for _, s := range spans {
		key := s.Name
		if s.Detail != "" {
			key += " [" + s.Detail + "]"
		}
		g := groups[key]
		if g == nil {
			g = &agg{}
			groups[key] = g
		}
		g.durs = append(g.durs, float64(s.dur())/float64(time.Millisecond))
		g.total += s.dur()
		g.self += selfTime(s, kids[s.ID])
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := []string{fmt.Sprintf("%-50s %8s %10s %10s %10s", "span", "count", "p50_ms", "total_s", "self_s")}
	for _, k := range keys {
		g := groups[k]
		lines = append(lines, fmt.Sprintf("%-50s %8d %10.4g %10.4g %10.4g", k, len(g.durs), median(g.durs), g.total.Seconds(), g.self.Seconds()))
	}
	return lines
}

// fleetPhase is one timed stretch of fleet sessions.
type fleetPhase struct {
	timing
	sessions []fleetSession
	errs     []error
	tm       sessionTimes
	retries  int
}

// fleetProcs is the fleet-panel's GOMAXPROCS.
const fleetProcs = 1

func runFleetPhase(c *fleetClient, o options, dur time.Duration) fleetPhase {
	var ph fleetPhase
	retries0 := c.retries
	ph.timing = runTimed(o, dur, func(seed int64) {
		s, err := c.session(seed, &ph.tm)
		if err != nil {
			ph.errs = append(ph.errs, err)
			return
		}
		ph.sessions = append(ph.sessions, s)
	})
	ph.retries = c.retries - retries0
	return ph
}

// runFleet measures fleet-panel.
func runFleet(o options) (*report, error) {
	rep := newReport()
	work := filepath.Join(o.out, fmt.Sprintf("fleet-%d", os.Getpid()))
	defer os.RemoveAll(work)
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	enabled := &atomic.Bool{}

	// The router, the members and the client share one scheduler thread
	// through set-up and the timed region, like a fleet confined to one
	// CPU: no core is idle, so a parallelism change should leave this
	// workload flat while a CPU saving lifts it. One thread also keeps
	// each HTTP hop from waking the other vCPU, whose wake-up latency on
	// a shared host swung the panel's answer wait by half between runs.
	prevProcs := runtime.GOMAXPROCS(fleetProcs)
	rep.context["gomaxprocs"] = fleetProcs

	// Set-up: member and router bring-up, readiness, and one warm-up
	// session through the router. Earlier repeats are torn down.
	var env *fleetEnv
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		e, err := startFleet(dir, rec, enabled)
		if err != nil {
			return nil, fmt.Errorf("bring-up: %w", err)
		}
		c, err := newFleetClient("warmup", e, rec, enabled)
		if err == nil {
			_, err = c.session(o.seeds[0], &sessionTimes{})
			c.close()
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up session: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			e.close()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			continue
		}
		env = e
	}
	defer env.close()
	rep.metrics["setup_s"] = median(setups)
	rep.context["setup_s_each"] = setups

	client, err := newFleetClient("architect", env, rec, enabled)
	if err != nil {
		return nil, err
	}
	defer client.close()
	var timed, traced fleetPhase
	if o.trace {
		timed = runFleetPhase(client, o, seconds(o.seconds/2))
		enabled.Store(true)
		traced = runFleetPhase(client, o, seconds(o.seconds/2))
		enabled.Store(false)
	} else {
		timed = runFleetPhase(client, o, seconds(o.seconds))
	}

	runtime.GOMAXPROCS(prevProcs)

	// Output checks, after the timed region: each session's exported
	// transcript must equal, byte for byte, service.BatchRun's on the same
	// spec, having converged.
	refs, err := batchReferences(o.seeds)
	if err != nil {
		return nil, err
	}
	ok := 0
	var agrSum float64
	all := append(slices.Clone(timed.sessions), traced.sessions...)
	for _, s := range all {
		ref := refs[s.seed]
		switch {
		case !bytes.Equal(s.transcript, ref.transcript):
			rep.fail("seed %d session %s: transcript differs from service.BatchRun (%d vs %d bytes)", s.seed, s.id, len(s.transcript), len(ref.transcript))
		case s.answers != ref.queries:
			rep.fail("seed %d session %s: %d answers, batch run asked %d", s.seed, s.id, s.answers, ref.queries)
		case !ref.converged:
			rep.fail("seed %d did not converge", s.seed)
		case ref.agreement < minSessionAgreement:
			rep.fail("seed %d agreement %.4f below %.2f", s.seed, ref.agreement, minSessionAgreement)
		default:
			ok++
		}
		agrSum += ref.agreement
	}
	rep.tally(o.workload, timed.attempted+traced.attempted, ok, agrSum, len(all), append(timed.errs, traced.errs...))
	answers := 0
	for _, s := range timed.sessions {
		answers += s.answers
	}
	rep.throughput(timed.timing, len(timed.sessions), answers)
	rep.context["client_retries"] = timed.retries
	if !o.trace {
		if err := latencyMetrics(rep, &timed.tm); err != nil {
			return nil, err
		}
		return rep, rep.scaleToReference(timed.ref, false)
	}
	fleetLayers(rep, refs, &timed, &traced, rec)
	return rep, nil
}

// fleetLayers fills the per-layer metrics from the traced phase's spans
// and the sessions' status documents.
func fleetLayers(rep *report, refs map[int64]fleetRef, untraced, ph *fleetPhase, rec *recorder) {
	l := layers{rep, len(ph.sessions)}
	var eff solver.StatsSnapshot
	iters, edges, answers := 0, 0, 0
	var journal int64
	var oracleT []time.Duration
	for _, s := range ph.sessions {
		iters += refs[s.seed].iterations
		edges += refs[s.seed].edges
		sumEffort(&eff, s.effort)
		journal += s.journalBytes
		answers += s.answers
		oracleT = append(oracleT, s.oracle...)
	}
	ackLayers(rep, &ph.tm)
	l.per("core.iterations_per_session", float64(iters))
	l.effort(eff)
	l.per("prefgraph.edges_per_session", float64(edges))
	percentileOr0(rep, "oracle.answer_us_p50", us(oracleT), 0.5)

	spans := rec.all()
	kids := children(spans)
	var proxySelf, judg, judgSelf, push, apply, queries []float64
	judgIDs := map[int64]bool{}
	routed := 0
	for _, s := range spans {
		d := float64(s.dur()) / float64(time.Millisecond)
		switch {
		case s.Name == "fleet.handler" && s.Parent != 0:
			routed++
			proxySelf = append(proxySelf, float64(selfTime(s, kids[s.ID]))/float64(time.Millisecond))
		case s.Name == "service.handler" && s.Detail == "POST judgments":
			judg = append(judg, d)
			judgSelf = append(judgSelf, float64(selfTime(s, kids[s.ID]))/float64(time.Millisecond))
			judgIDs[s.ID] = true
		case s.Name == "service.handler" && s.Detail == "PUT replica":
			apply = append(apply, d)
		case s.Name == "service.handler" && s.Detail == "GET queries":
			queries = append(queries, d)
		case s.Name == "service.replica_push":
			push = append(push, d)
		}
	}
	pushes := 0
	for _, s := range spans {
		if s.Name == "service.replica_push" && judgIDs[s.Parent] {
			pushes++
		}
	}
	percentileOr0(rep, "fleet.proxy_self_ms_p50", proxySelf, 0.5)
	l.per("fleet.requests_per_session", float64(routed))
	l.per("fleet.client_retries_per_session", float64(ph.retries))
	percentileOr0(rep, "service.judgment_ms_p50", judg, 0.5)
	percentileOr0(rep, "service.judgment_ms_p90", judg, 0.9)
	percentileOr0(rep, "service.judgment_self_ms_p50", judgSelf, 0.5)
	percentileOr0(rep, "service.replica_push_ms_p50", push, 0.5)
	percentileOr0(rep, "service.replica_push_ms_p90", push, 0.9)
	percentileOr0(rep, "service.replica_apply_ms_p50", apply, 0.5)
	l.share("service.replica_pushes_per_judgment", float64(pushes), float64(len(judg)), "judgments")
	percentileOr0(rep, "service.queries_wait_ms_p50", queries, 0.5)
	l.share("service.journal_bytes_per_judgment", float64(journal), float64(answers), "judgments (owner journals at session end)")
	traceOverhead(rep, untraced.timing, ph.timing, len(untraced.sessions), len(ph.sessions))
	hostSpeedLayer(rep, ph.ref)
	rep.spans = spans
	rep.table = spanTable(spans)
}
