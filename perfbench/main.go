// Command perfbench is the compsynth benchmark. It measures the cost of
// the comparative-synthesis loop the way an architect pays it: how many
// comparisons a session asks for, how long each answer waits for the
// next query, and what a converged session costs in wall time and CPU.
//
// Run it from the repository root (perfbench/run.py builds it first):
//
//	perfbench --workload table1-fast --seed 1 --seconds 30 --trace 0
//
// Workloads (all closed loops: a client answers only after it has seen
// the query):
//
//   - table1-fast: one client drives core.Stepper with
//     experiments.RunOnce's Fast budgets, planner on, one pair per round.
//   - table1-paper: the same client at the solver defaults (paper
//     fidelity).
//   - fleet-panel: one client drives sessions through an in-process
//     fleet (router, three members, two journal copies per session) on
//     one scheduler thread, one judgment per POST, three pairs per round.
//
// Every run works through a fixed seed list (-seeds) in whole passes until
// -seconds have passed; -seed only shuffles the order of each pass, so
// the work mix, and with it queries_per_session, is the same on every
// run. Set-up (bring-up plus one warm-up session) is repeated -setups
// times and reported as a median. With -trace 1 the run measures half
// its time untraced and half traced, prints the per-layer table and the
// tracing overhead, and writes its spans as JSONL under -out.
//
// The last line of standard output is the JSON result; the exit status
// is non-zero when any output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run, in print order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sessions_per_s", "1/s"},
	{"cpu_ms_per_session", "ms"},
	{"answer_wait_ms_p50", "ms"},
	{"answer_wait_ms_p90", "ms"},
	{"queries_per_session", "count"},
	{"agreement_mean", "fraction"},
	{"success_frac", "fraction"},
	{"rss_mb", "MB"},
}

// perLayer are the metrics of a traced run, in print order. A layer a
// workload does not run reports 0 (core spans on fleet-panel, the fleet
// and service layers on table1-*). The judgment acks are client-side
// timings kept here rather than end to end because they do not repeat
// from run to run on a shared host: an in-process AnswerSeq takes well
// under a microsecond, and a fleet ack's tail follows fsync and wake-up
// latency.
var perLayer = []metricDef{
	{"judgment_ack_ms_p50", "ms"},
	{"judgment_ack_ms_p90", "ms"},
	{"core.step_ms_p50", "ms"},
	{"core.step_ms_p90", "ms"},
	{"core.step_s_per_session", "s"},
	{"core.new_ms_per_session", "ms"},
	{"core.iterations_per_session", "count"},
	{"core.rebuilds_per_session", "count"},
	{"core.self_ms_per_session", "ms"},
	{"solver.search_s_per_session", "s"},
	{"solver.search_share", "fraction"},
	{"solver.samples_per_session", "count"},
	{"solver.repairs_per_session", "count"},
	{"solver.sat_ratio", "fraction"},
	{"solver.hint_hits_per_session", "count"},
	{"solver.boxes_per_session", "count"},
	{"expr.batched_evals_per_session", "count"},
	{"expr.scalar_evals_per_session", "count"},
	{"expr.batched_share", "fraction"},
	{"sketch.spec_compiles_per_session", "count"},
	{"sketch.spec_cache_hit_ratio", "fraction"},
	{"prefgraph.edges_per_session", "count"},
	{"oracle.answer_us_p50", "us"},
	{"fleet.proxy_self_ms_p50", "ms"},
	{"fleet.requests_per_session", "count"},
	{"fleet.client_retries_per_session", "count"},
	{"service.judgment_ms_p50", "ms"},
	{"service.judgment_ms_p90", "ms"},
	{"service.judgment_self_ms_p50", "ms"},
	{"service.replica_push_ms_p50", "ms"},
	{"service.replica_push_ms_p90", "ms"},
	{"service.replica_apply_ms_p50", "ms"},
	{"service.replica_pushes_per_judgment", "count"},
	{"service.queries_wait_ms_p50", "ms"},
	{"service.journal_bytes_per_judgment", "bytes"},
	{"trace.overhead_share", "fraction"},
	{"trace.untraced_sessions_per_s", "1/s"},
	{"trace.traced_sessions_per_s", "1/s"},
	{"host.ref_kernel_ms_p50", "ms"},
}

// defaultSeeds sizes each workload's pass at a few seconds on a 2-CPU
// host, so a run holds several whole passes.
var defaultSeeds = map[string]string{
	"table1-fast":  "1-16",
	"table1-paper": "1-8",
	"fleet-panel":  "1-24",
}

// Agreement with the ground truth over 2000 random scenario pairs is
// the paper's correctness measure. The mean over the seed list must
// reach the workload's floor: 0.995 at paper fidelity, the bar
// EXPERIMENTS.md reports, and 0.99 at the fast budgets, whose γ=2
// resolution ends sessions on coarser objectives (seeds 1-48 average
// 0.994 there, single seeds down to 0.965). No single session may fall
// below minSessionAgreement, which only a wrong objective reaches.
var minMeanAgreement = map[string]float64{
	"table1-fast":  0.99,
	"table1-paper": 0.995,
	"fleet-panel":  0.99,
}

const minSessionAgreement = 0.95

// setupRepeats is how many bring-ups, each with its warm-up session,
// stand behind the setup_s median.
const setupRepeats = 7

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	seeds    []int64
	out      string
}

// report is what a workload hands back for printing.
type report struct {
	metrics   map[string]float64
	bases     map[string]string // per-layer metric -> the count it is taken over
	attempted int
	failed    int
	problems  []string
	context   map[string]any
	spans     []span
	table     []string
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func main() {
	var (
		o       options
		traceN  int
		seedArg string
	)
	flag.StringVar(&o.workload, "workload", "", "table1-fast, table1-paper or fleet-panel")
	flag.Int64Var(&o.seed, "seed", 1, "shuffles the order of each pass over the seed list")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured time; the run ends at the first pass boundary after it")
	flag.IntVar(&traceN, "trace", 0, "1 measures per-layer metrics in a traced run")
	flag.StringVar(&seedArg, "seeds", "", "session seed list, e.g. 1-16 or 3,5,8 (default per workload)")
	flag.StringVar(&o.out, "out", ".bench_build", "directory for journals and span dumps")
	flag.Parse()
	o.trace = traceN == 1
	if _, ok := defaultSeeds[o.workload]; !ok {
		fatalf("unknown -workload %q", o.workload)
	}
	if seedArg == "" {
		seedArg = defaultSeeds[o.workload]
	}
	seeds, err := parseSeeds(seedArg)
	if err != nil {
		fatalf("-seeds: %v", err)
	}
	o.seeds = seeds
	if o.seconds <= 0 {
		fatalf("-seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatalf("%v", err)
	}

	var rep *report
	switch o.workload {
	case "table1-fast":
		rep, err = runTable1(o, true)
	case "table1-paper":
		rep, err = runTable1(o, false)
	case "fleet-panel":
		rep, err = runFleet(o)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	os.Exit(emit(o, rep))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// parseSeeds reads "a-b" ranges and comma lists.
func parseSeeds(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		lo, hi, isRange := strings.Cut(strings.TrimSpace(part), "-")
		a, err := strconv.ParseInt(lo, 10, 64)
		if err != nil {
			return nil, err
		}
		b := a
		if isRange {
			if b, err = strconv.ParseInt(hi, 10, 64); err != nil {
				return nil, err
			}
		}
		for v := a; v <= b; v++ {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		return nil, errors.New("empty seed list")
	}
	return out, nil
}

// emit prints the context line, the per-layer table (traced runs) and
// the result line, and returns the exit status.
func emit(o options, rep *report) int {
	rep.context["workload"] = o.workload
	rep.context["nproc"] = runtime.NumCPU()
	if _, set := rep.context["gomaxprocs"]; !set {
		rep.context["gomaxprocs"] = runtime.GOMAXPROCS(0)
	}
	rep.context["go_version"] = runtime.Version()
	rep.context["seeds"] = o.seeds
	rep.context["order_seed"] = o.seed
	rep.context["setups"] = setupRepeats
	rep.context["problems"] = rep.problems
	defs := endToEnd
	if o.trace {
		defs = perLayer
		for _, d := range perLayer {
			if _, ok := rep.metrics[d.name]; !ok {
				rep.metrics[d.name] = 0
				rep.bases[d.name] = "not on this workload's path"
			}
		}
		rep.context["bases"] = rep.bases
		if len(rep.spans) > 0 {
			path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
			if err := writeJSONL(path, rep.spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
				return 1
			}
			rep.context["spans_file"] = path
			rep.context["spans"] = len(rep.spans)
		}
		for _, line := range rep.table {
			fmt.Println(line)
		}
		fmt.Printf("%-38s %14s  %-8s %s\n", "metric", "value", "unit", "base")
		for _, d := range perLayer {
			fmt.Printf("%-38s %14.6g  %-8s %s\n", d.name, rep.metrics[d.name], d.unit, rep.bases[d.name])
		}
	}
	for _, p := range rep.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	ctxLine, err := json.Marshal(map[string]any{"context": rep.context})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(ctxLine))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		metrics[d.name] = value{v, d.unit}
	}
	correct := len(rep.problems) == 0 && rep.failed == 0
	line, err := json.Marshal(map[string]any{
		"correct":   correct,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// seedQueue hands out the seed list in whole passes, each shuffled from
// the run's order seed, and starts no new pass once the deadline has
// passed.
type seedQueue struct {
	seeds    []int64
	rng      *rand.Rand
	deadline time.Time
	order    []int64
	pos      int
	starts   []time.Time // when each pass was started
}

func newSeedQueue(seeds []int64, orderSeed int64, deadline time.Time) *seedQueue {
	return &seedQueue{seeds: seeds, rng: rand.New(rand.NewSource(orderSeed)), deadline: deadline}
}

func (q *seedQueue) next() (int64, bool) {
	if q.pos == len(q.order) {
		if len(q.starts) > 0 && !time.Now().Before(q.deadline) {
			return 0, false
		}
		q.order = slices.Clone(q.seeds)
		q.rng.Shuffle(len(q.order), func(i, j int) { q.order[i], q.order[j] = q.order[j], q.order[i] })
		q.pos = 0
		q.starts = append(q.starts, time.Now())
	}
	s := q.order[q.pos]
	q.pos++
	return s, true
}

// timing is what a timed loop measured.
type timing struct {
	attempted int
	wall, cpu time.Duration
	passS     []float64       // wall time of each pass
	ref       []time.Duration // the reference kernel, timed after each session
}

// rate is sessions per second of the loop's wall time.
func (t timing) rate(sessions int) float64 { return ratio(float64(sessions), t.wall.Seconds()) }

// runTimed runs session for the seed list in whole passes until dur has
// passed, and measures wall and CPU time over the loop. The reference
// kernel runs after each session; its time is left out of the loop's.
func runTimed(o options, dur time.Duration, session func(seed int64)) timing {
	runtime.GC()
	q := newSeedQueue(o.seeds, o.seed, time.Now().Add(dur))
	var t timing
	var kernel kernelTime
	cpu0, t0 := cpuTime(), time.Now()
	for {
		seed, ok := q.next()
		if !ok {
			break
		}
		t.attempted++
		session(seed)
		k := timeRefKernel()
		t.ref = append(t.ref, k.wall)
		kernel.wall += k.wall
		kernel.cpu += k.cpu
	}
	end := time.Now()
	t.wall, t.cpu = end.Sub(t0)-kernel.wall, cpuTime()-cpu0-kernel.cpu
	for i, start := range q.starts {
		stop := end
		if i+1 < len(q.starts) {
			stop = q.starts[i+1]
		}
		t.passS = append(t.passS, stop.Sub(start).Seconds())
	}
	return t
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration { return rusageCPU(syscall.RUSAGE_SELF) }

// rusageCPU is the user+system CPU time getrusage reports for who.
func rusageCPU(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// latencyMetrics fills the answer-wait percentiles.
func latencyMetrics(rep *report, tm *sessionTimes) error {
	wait := ms(tm.answerWait)
	for _, p := range []struct {
		name string
		q    float64
	}{{"answer_wait_ms_p50", 0.5}, {"answer_wait_ms_p90", 0.9}} {
		v, err := percentile(wait, p.q)
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		rep.metrics[p.name] = v
	}
	rep.context["samples"] = map[string]int{"answer_waits": len(wait), "acks": len(tm.ack)}
	return nil
}

// ackLayers reports the judgment-ack percentiles of the traced phase.
func ackLayers(rep *report, tm *sessionTimes) {
	percentileOr0(rep, "judgment_ack_ms_p50", ms(tm.ack), 0.5)
	percentileOr0(rep, "judgment_ack_ms_p90", ms(tm.ack), 0.9)
}

// percentileOr0 reports a per-layer percentile, or 0 with the refusal
// as its base when the layer produced too few samples. A layer with no
// samples is left for emit to report as not on the workload's path.
func percentileOr0(rep *report, name string, xs []float64, p float64) {
	if len(xs) == 0 {
		return
	}
	v, err := percentile(xs, p)
	if err != nil {
		rep.metrics[name] = 0
		rep.bases[name] = "refused: " + err.Error()
		return
	}
	rep.metrics[name] = v
	rep.bases[name] = fmt.Sprintf("%d samples", len(xs))
}
