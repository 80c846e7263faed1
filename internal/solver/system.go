package solver

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/obs"
	"compsynth/internal/sketch"
)

// System is a compiled conjunction of preference constraints: the
// Problem representation lowered for the solver's hot path. Each
// constraint's two scenarios are partial-evaluated into the sketch body
// (sketch.Specialize), so violation, satisfaction, and interval pruning
// run hole-only programs — no scenario binding, no map lookups, no AST
// walks — while remaining bit-exact with the Problem-based reference
// path (violation/Satisfies in solver.go), which is what keeps
// synthesis transcripts identical for fixed seeds.
//
// A System is built once and mutated incrementally as preference edges
// are recorded (AddPref/InsertPref/RemovePref/AddTie), so the per-
// iteration cost of the synthesis loop is one specialization pair per
// new edge instead of a full problem rebuild. Mutation is not
// goroutine-safe; the search methods only read and may be called with
// Workers > 1.
type System struct {
	sk     *sketch.Sketch
	margin float64
	viable func(holes []float64) bool
	stats  *Stats
	// metrics, when non-nil, times and counts the public searches
	// (see SetMetrics). Nil means zero instrumentation cost: the
	// wrappers skip even the clock reads.
	metrics *Metrics
	// learned, when non-nil, is the cross-search learned-prune cache
	// (see SetLearned and learned.go). Every constraint mutation is
	// reported to it so cached facts are invalidated exactly when the
	// constraints supporting them go away.
	learned *Learned
	// progress, when non-nil, receives per-wave live-introspection
	// stores (see SetProgress and progress.go); log, when non-nil,
	// receives wave-level debug events. Both are updated once per wave,
	// never per box.
	progress *Progress
	log      *obs.Logger

	prefs []Pref
	cps   []compiledPref
	ties  []Tie
	cts   []compiledTie

	// batchPool recycles Batch scratch across searches (sampling draws
	// one per call; see getBatch). Pooled batches may have any lane
	// width, so getBatch re-checks the width on the way out.
	batchPool sync.Pool
	// repairPool recycles repair scratch (see getRepair); repairs run
	// concurrently under Workers > 1.
	repairPool sync.Pool
}

// compiledPref is a preference edge lowered to one hole-only program
// computing f(better) - f(worse). Fusing the pair into a single
// difference program halves evaluator dispatch per constraint and keeps
// each constraint's instructions contiguous; the result is bit-exact
// with evaluating the sides separately and subtracting (same float ops
// in the same order, and interval Sub is exactly the Bin/OpSub
// semantics).
type compiledPref struct {
	diff *expr.Program
	// key and addVersion identify the constraint to the learned-prune
	// cache: key is the content identity (exact scenario float bits),
	// addVersion the cache's monotone addition counter. Both are zero
	// when no cache is attached.
	key        string
	addVersion uint64
}

// compiledTie is an indifference constraint lowered the same way:
// one program computing f(A) - f(B), checked against ±band.
type compiledTie struct {
	diff *expr.Program
	band float64
	// key and addVersion: see compiledPref.
	key        string
	addVersion uint64
}

// NewSystem returns an empty compiled system over the sketch's hole
// box. margin and viable have Problem.Margin/Problem.Viable semantics.
// stats, when non-nil, accumulates specialization counters (and is also
// the default Stats sink for searches run through the system).
func NewSystem(sk *sketch.Sketch, margin float64, viable func(holes []float64) bool, stats *Stats) *System {
	return &System{sk: sk, margin: margin, viable: viable, stats: stats}
}

// compileSystem lowers a Problem. Specializations hit the sketch's
// cache after the first compile of each distinct scenario, so repeated
// solver calls over a growing problem stay cheap.
func compileSystem(p Problem, stats *Stats) *System {
	s := NewSystem(p.Sketch, p.Margin, p.Viable, stats)
	s.prefs = make([]Pref, 0, len(p.Prefs))
	s.cps = make([]compiledPref, 0, len(p.Prefs))
	s.ties = make([]Tie, 0, len(p.Ties))
	s.cts = make([]compiledTie, 0, len(p.Ties))
	for _, c := range p.Prefs {
		s.AddPref(c)
	}
	for _, t := range p.Ties {
		s.AddTie(t)
	}
	return s
}

// compileDiff obtains the fused difference program f(a) - f(b) for a
// constraint, served from the sketch's pair cache (which in turn builds
// on the per-scenario specialization cache), with counter accounting.
func (s *System) compileDiff(a, b []float64) *expr.Program {
	prog, hit := s.sk.SpecializeDiff(a, b)
	if s.stats != nil {
		if hit {
			s.stats.SpecCacheHits.Add(1)
		} else {
			s.stats.SpecCompiles.Add(1)
		}
	}
	return prog
}

// SetMetrics attaches registry-backed instruments (obtained from
// NewMetrics) to the system's searches. A nil argument detaches them.
// Like constraint mutation, SetMetrics is not goroutine-safe with
// concurrent searches.
func (s *System) SetMetrics(m *Metrics) { s.metrics = m }

// SetLearned attaches a learned-prune cache. Constraints already in the
// system are registered with it, so attaching to a non-empty system is
// safe; detaching (nil) leaves the cache's bookkeeping consistent for a
// later re-attach. Like constraint mutation, SetLearned is not
// goroutine-safe with concurrent searches.
//
// One cache must serve one constraint stream: attach a Learned to a
// single System for its lifetime (the synthesizer holds exactly one of
// each per session).
func (s *System) SetLearned(l *Learned) {
	if s.learned == l {
		return
	}
	if s.learned != nil {
		// Retire this system's constraints from the old cache so its
		// presence counts do not leak.
		for i := range s.cps {
			s.learned.constraintRemoved(s.cps[i].key)
		}
		for i := range s.cts {
			s.learned.constraintRemoved(s.cts[i].key)
		}
	}
	s.learned = l
	if l == nil {
		for i := range s.cps {
			s.cps[i].key, s.cps[i].addVersion = "", 0
		}
		for i := range s.cts {
			s.cts[i].key, s.cts[i].addVersion = "", 0
		}
		return
	}
	for i := range s.cps {
		s.cps[i].key = prefKey(s.prefs[i])
		s.cps[i].addVersion = l.constraintAdded(s.cps[i].key)
	}
	for i := range s.cts {
		s.cts[i].key = tieKey(s.ties[i])
		s.cts[i].addVersion = l.constraintAdded(s.cts[i].key)
	}
}

// Learned returns the attached learned-prune cache (nil if none).
func (s *System) Learned() *Learned { return s.learned }

// Sketch returns the sketch the system is compiled against.
func (s *System) Sketch() *sketch.Sketch { return s.sk }

// Margin returns the strictness slack (Problem.Margin).
func (s *System) Margin() float64 { return s.margin }

// NumPrefs returns the number of preference constraints.
func (s *System) NumPrefs() int { return len(s.prefs) }

// NumTies returns the number of indifference constraints.
func (s *System) NumTies() int { return len(s.ties) }

// Prefs returns the preference constraints in constraint order (copy).
func (s *System) Prefs() []Pref { return append([]Pref(nil), s.prefs...) }

// Ties returns the indifference constraints in constraint order (copy).
func (s *System) Ties() []Tie { return append([]Tie(nil), s.ties...) }

// AddPref appends a preference constraint.
func (s *System) AddPref(c Pref) {
	s.prefs = append(s.prefs, c)
	s.cps = append(s.cps, s.compilePref(c))
}

// compilePref lowers one preference constraint, registering it with the
// learned cache when one is attached.
func (s *System) compilePref(c Pref) compiledPref {
	cp := compiledPref{diff: s.compileDiff(c.Better, c.Worse)}
	if s.learned != nil {
		cp.key = prefKey(c)
		cp.addVersion = s.learned.constraintAdded(cp.key)
	}
	return cp
}

// InsertPref inserts a preference constraint at index i. Constraint
// order is observable — the violation sum and the satisfaction mask
// follow it — so callers maintaining a canonical order (the synthesizer
// mirrors prefgraph.Edges) insert rather than append.
func (s *System) InsertPref(i int, c Pref) {
	s.prefs = append(s.prefs, Pref{})
	copy(s.prefs[i+1:], s.prefs[i:])
	s.prefs[i] = c
	s.cps = append(s.cps, compiledPref{})
	copy(s.cps[i+1:], s.cps[i:])
	s.cps[i] = s.compilePref(c)
}

// RemovePref removes the preference constraint at index i. With a
// learned cache attached this bumps the cache's removal epoch: cached
// point-level facts are no longer monotone once the constraint set can
// shrink, and refutations proved by this constraint die with its last
// instance.
func (s *System) RemovePref(i int) {
	if s.learned != nil {
		s.learned.constraintRemoved(s.cps[i].key)
	}
	s.prefs = append(s.prefs[:i], s.prefs[i+1:]...)
	s.cps = append(s.cps[:i], s.cps[i+1:]...)
}

// AddTie appends an indifference constraint.
func (s *System) AddTie(t Tie) {
	ct := compiledTie{diff: s.compileDiff(t.A, t.B), band: t.Band}
	if s.learned != nil {
		ct.key = tieKey(t)
		ct.addVersion = s.learned.constraintAdded(ct.key)
	}
	s.ties = append(s.ties, t)
	s.cts = append(s.cts, ct)
}

// Reset drops all constraints, keeping the sketch and its
// specialization cache. A rebuild (Reset + re-adding the same
// constraints) keeps the learned cache's refutations alive: each re-add
// restores its key's presence count, so refuted boxes stay valid, while
// point-level facts lapse with the epoch bump — exactly the
// conservative direction.
func (s *System) Reset() {
	if s.learned != nil {
		for i := range s.cps {
			s.learned.constraintRemoved(s.cps[i].key)
		}
		for i := range s.cts {
			s.learned.constraintRemoved(s.cts[i].key)
		}
	}
	s.prefs, s.cps = s.prefs[:0], s.cps[:0]
	s.ties, s.cts = s.ties[:0], s.cts[:0]
}

// ExportLearned serializes the attached learned cache's refuted boxes,
// naming each refuting constraint by its current index in this system's
// constraint order. Returns nil when no cache is attached or nothing is
// cached. Call only while the constraint set is quiescent (same rule as
// mutation).
func (s *System) ExportLearned() *LearnedSummary {
	if s.learned == nil {
		return nil
	}
	prefIdx := make(map[string]int, len(s.cps))
	for i := len(s.cps) - 1; i >= 0; i-- {
		prefIdx[s.cps[i].key] = i // first instance wins
	}
	tieIdx := make(map[string]int, len(s.cts))
	for i := len(s.cts) - 1; i >= 0; i-- {
		tieIdx[s.cts[i].key] = i
	}
	var sum LearnedSummary
	s.learned.forEachRefuted(func(box []interval.Interval, refuter string) {
		r := RefutedRegion{Box: make([][2]float64, len(box))}
		for i, iv := range box {
			r.Box[i] = [2]float64{iv.Lo, iv.Hi}
		}
		if i, ok := prefIdx[refuter]; ok {
			r.Index = i
		} else if i, ok := tieIdx[refuter]; ok {
			r.Tie, r.Index = true, i
		} else {
			return // constraint no longer in this system; drop the entry
		}
		sum.Refuted = append(sum.Refuted, r)
	})
	if len(sum.Refuted) == 0 {
		return nil
	}
	return &sum
}

// ImportLearned verifies a summary against this system's constraints
// and, if every region checks out, installs the refutations into the
// attached cache. Verification re-proves each region from scratch — one
// interval evaluation of the named constraint per box — so a summary
// that lies (tampered checkpoint, stale journal, changed sketch) is
// rejected as a whole and the caller falls back to cold solving; the
// cache can never be poisoned through this path. Returns the number of
// regions installed.
func (s *System) ImportLearned(sum *LearnedSummary) (int, error) {
	if sum == nil || len(sum.Refuted) == 0 {
		return 0, nil
	}
	if s.learned == nil {
		return 0, errors.New("solver: ImportLearned without an attached cache")
	}
	if err := sum.Validate(); err != nil {
		return 0, err
	}
	dim := len(s.sk.Domains())
	type verified struct {
		box []interval.Interval
		key string
	}
	regions := make([]verified, 0, len(sum.Refuted))
	for i, r := range sum.Refuted {
		if len(r.Box) != dim {
			return 0, fmt.Errorf("solver: learned region %d has %d dims, sketch has %d", i, len(r.Box), dim)
		}
		box := make([]interval.Interval, dim)
		for j, b := range r.Box {
			box[j] = interval.New(b[0], b[1])
		}
		var key string
		if r.Tie {
			if r.Index >= len(s.cts) {
				return 0, fmt.Errorf("solver: learned region %d names tie %d of %d", i, r.Index, len(s.cts))
			}
			ct := s.cts[r.Index]
			diff := ct.diff.EvalInterval(nil, box)
			if !(diff.Lo > ct.band || diff.Hi < -ct.band) {
				return 0, fmt.Errorf("solver: learned region %d fails re-verification against tie %d", i, r.Index)
			}
			key = ct.key
		} else {
			if r.Index >= len(s.cps) {
				return 0, fmt.Errorf("solver: learned region %d names constraint %d of %d", i, r.Index, len(s.cps))
			}
			cp := s.cps[r.Index]
			diff := cp.diff.EvalInterval(nil, box)
			if !(diff.Hi <= s.margin) {
				return 0, fmt.Errorf("solver: learned region %d fails re-verification against constraint %d", i, r.Index)
			}
			key = cp.key
		}
		regions = append(regions, verified{box: box, key: key})
	}
	// All regions verified; install atomically with respect to failure.
	for _, v := range regions {
		s.learned.storeBox(hashBox(v.box), v.box, v.key, false)
	}
	return len(regions), nil
}

// WarmLearned is the advisory sibling of ImportLearned for summaries
// that came from a *different* session (the fleet's shared learned
// tier): instead of all-or-nothing verification it re-proves each
// region independently and installs only the ones that check out,
// skipping the rest. A region first tries the constraint index the
// exporter named (cheap, and exact for same-history summaries); when
// that fails — cross-session summaries index a different constraint
// order — every constraint is scanned for one that refutes the box.
// Every installed fact is therefore proven against *this* system, so
// warming can never change results, only skip work the prune engine
// would have redone. Returns how many regions were installed and how
// many were skipped.
func (s *System) WarmLearned(sum *LearnedSummary) (installed, skipped int) {
	if sum == nil || s.learned == nil {
		return 0, 0
	}
	dim := len(s.sk.Domains())
	box := make([]interval.Interval, dim)
	for _, r := range sum.Refuted {
		if len(r.Box) != dim || !finiteRegion(r) {
			skipped++
			continue
		}
		for j, b := range r.Box {
			box[j] = interval.New(b[0], b[1])
		}
		key, ok := s.refuterFor(box, r)
		if !ok {
			skipped++
			continue
		}
		s.learned.storeBox(hashBox(box), append([]interval.Interval(nil), box...), key, false)
		installed++
	}
	return installed, skipped
}

// refuterFor finds a constraint of this system that provably refutes
// the box, preferring the index the exporting system recorded.
func (s *System) refuterFor(box []interval.Interval, r RefutedRegion) (key string, ok bool) {
	refutesPref := func(i int) bool {
		diff := s.cps[i].diff.EvalInterval(nil, box)
		return diff.Hi <= s.margin
	}
	refutesTie := func(i int) bool {
		ct := s.cts[i]
		diff := ct.diff.EvalInterval(nil, box)
		return diff.Lo > ct.band || diff.Hi < -ct.band
	}
	if r.Tie && r.Index >= 0 && r.Index < len(s.cts) && refutesTie(r.Index) {
		return s.cts[r.Index].key, true
	}
	if !r.Tie && r.Index >= 0 && r.Index < len(s.cps) && refutesPref(r.Index) {
		return s.cps[r.Index].key, true
	}
	for i := range s.cps {
		if refutesPref(i) {
			return s.cps[i].key, true
		}
	}
	for i := range s.cts {
		if refutesTie(i) {
			return s.cts[i].key, true
		}
	}
	return "", false
}

// finiteRegion reports whether a region's bounds are finite, ordered
// intervals — the structural subset of LearnedSummary.Validate that
// WarmLearned enforces per region instead of rejecting the whole
// summary.
func finiteRegion(r RefutedRegion) bool {
	for _, b := range r.Box {
		if math.IsNaN(b[0]) || math.IsInf(b[0], 0) || math.IsNaN(b[1]) || math.IsInf(b[1], 0) || b[0] > b[1] {
			return false
		}
	}
	return true
}

// Violation returns the hinge loss of θ against the constraints: 0 iff
// every constraint holds with the margin. Bit-identical to the
// Problem-based violation reference. The sum runs in canonical
// constraint order (preferences, then ties); repair's bounded probes
// depend on that order.
func (s *System) Violation(holes []float64) float64 {
	var loss float64
	for i := range s.cps {
		loss += s.prefTerm(i, holes)
	}
	for i := range s.cts {
		loss += s.tieTerm(i, holes)
	}
	return loss
}

// hingeTerm returns constraint c's term of the hinge loss, indexing
// constraints in canonical order: preferences, then ties. Terms are
// ≥ 0 and never NaN, and adding a zero term leaves a sum unchanged, so
// summing them in order reproduces Violation bit for bit.
func (s *System) hingeTerm(c int, holes []float64) float64 {
	if c < len(s.cps) {
		return s.prefTerm(c, holes)
	}
	return s.tieTerm(c-len(s.cps), holes)
}

// prefTerm is preference i's hinge term: its shortfall below the margin.
func (s *System) prefTerm(i int, holes []float64) float64 {
	if slack := s.margin - s.cps[i].diff.Eval(nil, holes); slack > 0 {
		return slack
	}
	return 0
}

// tieTerm is tie i's hinge term: how far |f(A) − f(B)| exceeds its band.
func (s *System) tieTerm(i int, holes []float64) float64 {
	diff := s.cts[i].diff.Eval(nil, holes)
	if diff < 0 {
		diff = -diff
	}
	if over := diff - s.cts[i].band; over > 0 {
		return over
	}
	return 0
}

// Satisfies reports whether the hole vector satisfies every constraint
// with the margin, and the viability check if set.
func (s *System) Satisfies(holes []float64) bool {
	for i := range s.cps {
		if s.cps[i].diff.Eval(nil, holes) <= s.margin {
			return false
		}
	}
	for i := range s.cts {
		diff := s.cts[i].diff.Eval(nil, holes)
		if diff < 0 {
			diff = -diff
		}
		if diff > s.cts[i].band {
			return false
		}
	}
	return s.viable == nil || s.viable(holes)
}

// SatisfiedMask writes the per-preference satisfaction of θ into mask
// (parallel to the constraint order; ties are not included). mask is
// grown as needed and returned.
func (s *System) SatisfiedMask(holes []float64, mask []bool) []bool {
	if cap(mask) < len(s.cps) {
		mask = make([]bool, len(s.cps))
	}
	mask = mask[:len(s.cps)]
	for i := range s.cps {
		mask[i] = s.cps[i].diff.Eval(nil, holes) > s.margin
	}
	return mask
}

// statsOf resolves the Stats sink for a search: the per-call Options
// override wins, else the system's own.
func (s *System) statsOf(opts Options) *Stats {
	if opts.Stats != nil {
		return opts.Stats
	}
	return s.stats
}

// FindCandidate searches the hole box for a vector consistent with all
// constraints; see the Problem-level FindCandidate for the staging.
//
// Deprecated: this wrapper cannot be canceled. Use
// NewSearch(s).FindCandidate(ctx, opts, rng).
func (s *System) FindCandidate(opts Options, rng *rand.Rand) ([]float64, Status) {
	h, st, _ := NewSearch(s).FindCandidate(context.Background(), opts, rng)
	return h, st
}

func (s *System) findCandidate(ctx context.Context, opts Options, rng *rand.Rand) ([]float64, Status, error) {
	domains := s.sk.Domains()
	stats := s.statsOf(opts)

	// Stage 0: warm-start hints (prior feasible witnesses carried
	// between iterations; they double as repair starts when the newest
	// constraint broke them).
	for _, hint := range opts.Hints {
		if err := ctx.Err(); err != nil {
			return nil, StatusUnknown, err
		}
		h := clampToBox(hint, domains)
		if s.hintSatisfies(h) {
			if stats != nil {
				stats.HintHits.Add(1)
			}
			return h, StatusSat, nil
		}
		if stats != nil {
			stats.Repairs.Add(1)
		}
		if s.repair(h, domains, opts.RepairSteps, rng, stats) {
			return h, StatusSat, nil
		}
	}

	// Stages 1–2: uniform sampling (batched; see sampleSatisfying), then
	// hinge-loss repair.
	if opts.Workers > 1 {
		ws, err := s.parallelWitnesses(ctx, opts, rng, 1)
		if err != nil {
			return nil, StatusUnknown, err
		}
		if len(ws) > 0 {
			return ws[0], StatusSat, nil
		}
	} else {
		var witness []float64
		found, err := s.sampleSatisfying(ctx, opts.Samples, opts.batchLanes(), domains, rng, stats, func(pt []float64) bool {
			witness = append([]float64(nil), pt...)
			return false
		})
		if err != nil {
			return nil, StatusUnknown, err
		}
		if found {
			return witness, StatusSat, nil
		}
		scratch := make([]float64, len(domains))
		for r := 0; r < opts.RepairRestarts; r++ {
			if err := ctx.Err(); err != nil {
				return nil, StatusUnknown, err
			}
			if stats != nil {
				stats.Repairs.Add(1)
			}
			fillRandomVector(scratch, domains, rng)
			if s.repair(scratch, domains, opts.RepairSteps, rng, stats) {
				return append([]float64(nil), scratch...), StatusSat, nil
			}
		}
	}

	// Stage 3: branch-and-prune (the parallel wave engine; prune.go).
	return s.branchAndPrune(ctx, domains, opts)
}

// hintSatisfies is Satisfies with the learned point cache in front: a
// hint that failed once stays failing while the constraint set only
// grows (epoch-guarded against removals), so the full evaluation is
// skipped; fresh failures are recorded. The boolean is identical to
// Satisfies(h) — the cache only skips re-deriving it — which keeps the
// hint stage's control flow, counters, and RNG consumption bit-exact
// with the uncached path.
func (s *System) hintSatisfies(h []float64) bool {
	if s.learned == nil {
		return s.Satisfies(h)
	}
	if s.learned.pointKnownUnsat(h) {
		return false
	}
	if s.Satisfies(h) {
		return true
	}
	s.learned.notePointUnsat(h)
	return false
}

// repair runs coordinate descent on the hinge loss from h, in place,
// and reports whether h ended at a satisfying point; see the algorithm
// description in solver.go. Callers that reuse h as scratch must copy
// it out on success.
func (s *System) repair(h []float64, domains []interval.Interval, steps int, rng *rand.Rand, stats *Stats) bool {
	sc := s.getRepair(len(h))
	loss := s.descend(h, domains, steps, rng, sc)
	if stats != nil {
		stats.RepairEvals.Add(sc.evals)
	}
	s.repairPool.Put(sc)
	return loss == 0 && s.Satisfies(h)
}

// repairScratch is the working memory of one repair call. It is pooled
// on the System (repairPool) rather than held in a field because
// searches with Workers > 1 repair concurrently.
type repairScratch struct {
	// terms holds every constraint's hinge term at the current point in
	// canonical order (preferences, then ties); next receives the terms
	// at a probe point. live lists, ascending, the constraints whose
	// current term is > 0.
	terms, next []float64
	live        []int
	step        []float64
	perm        []int
	// evals counts the constraint programs this call evaluated; repair
	// adds it to Stats.RepairEvals once, at the end.
	evals int64
}

// getRepair returns pooled repair scratch sized for the current
// constraint set and a dim-dimensional hole vector.
func (s *System) getRepair(dim int) *repairScratch {
	sc, _ := s.repairPool.Get().(*repairScratch)
	if sc == nil {
		sc = new(repairScratch)
	}
	n := len(s.cps) + len(s.cts)
	sc.terms = resize(sc.terms, n)
	sc.next = resize(sc.next, n)
	sc.live = resize(sc.live, n)[:0]
	sc.step = resize(sc.step, dim)
	sc.perm = resize(sc.perm, dim)
	sc.evals = 0
	return sc
}

// resize returns buf with length n, reallocating only when its capacity
// is short. The contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// descend is repair's coordinate descent. It returns the final loss,
// which is bit-identical to s.Violation(h): every accept/reject decision
// is the one a full Violation(h) < loss test would make (see probe).
func (s *System) descend(h []float64, domains []interval.Interval, steps int, rng *rand.Rand, sc *repairScratch) float64 {
	var loss float64
	for c := range sc.terms {
		sc.terms[c] = s.hingeTerm(c, h)
		loss += sc.terms[c]
	}
	sc.evals += int64(len(sc.terms))
	if loss == 0 {
		return 0
	}
	sc.noteLive()
	for i, d := range domains {
		sc.step[i] = d.Width() / 4
	}
	for it := 0; it < steps && loss > 0; it++ {
		improved := false
		// Random dimension order de-correlates descent paths between
		// restarts.
		fillPerm(sc.perm, rng)
		for _, i := range sc.perm {
			for _, dir := range [2]float64{+1, -1} {
				cand := h[i] + dir*sc.step[i]
				if cand < domains[i].Lo || cand > domains[i].Hi {
					continue
				}
				old := h[i]
				h[i] = cand
				if l, ok := s.probe(h, loss, sc); ok {
					loss = l
					improved = true
					break
				}
				h[i] = old
			}
			if loss == 0 {
				break // every further probe would be rejected
			}
		}
		if loss == 0 || improved {
			continue
		}
		allTiny := true
		for i := range sc.step {
			sc.step[i] /= 2
			if sc.step[i] > domains[i].Width()*1e-12 {
				allTiny = false
			}
		}
		if allTiny {
			break
		}
	}
	return loss
}

// probe reports whether the hinge loss at h is below bound and, if so,
// returns that loss and makes h's terms the current ones. It evaluates
// only as many constraints as the decision needs:
//
//  1. the constraints live at the current point (term > 0), in
//     canonical order, rejecting as soon as their running sum reaches
//     bound;
//  2. then every constraint in canonical order — live terms from step
//     1, the rest evaluated on the way — rejecting as soon as the
//     running sum reaches bound.
//
// The decision is exactly s.Violation(h) < bound. Every term is ≥ 0 and
// round-to-nearest addition is monotone, so a canonical-order sum over
// any subset of the terms (step 1) or any prefix of them (step 2) is ≤
// the full canonical-order sum: reaching bound early proves the full
// sum does too. An accepted loss is the full sum, formed by the same
// additions in the same order as Violation. Summing the subset in any
// other order (by magnitude, say) can land an ulp above the full sum
// and break the argument.
func (s *System) probe(h []float64, bound float64, sc *repairScratch) (float64, bool) {
	if !(bound > 0) {
		return 0, false // the loss is never negative
	}
	var sum float64
	for _, c := range sc.live {
		sc.next[c] = s.hingeTerm(c, h)
		sc.evals++
		sum += sc.next[c]
		if sum >= bound {
			return 0, false
		}
	}
	sum = 0
	for c, cur := range sc.terms {
		if cur == 0 { // not live: not evaluated in step 1
			sc.next[c] = s.hingeTerm(c, h)
			sc.evals++
		}
		sum += sc.next[c]
		if sum >= bound {
			return 0, false
		}
	}
	sc.terms, sc.next = sc.next, sc.terms
	sc.noteLive()
	return sum, true
}

// noteLive rebuilds the live list from the current terms.
func (sc *repairScratch) noteLive() {
	sc.live = sc.live[:0]
	for c, t := range sc.terms {
		if t > 0 {
			sc.live = append(sc.live, c)
		}
	}
}

// fillPerm writes a pseudo-random permutation of 0..len(p)-1 into p,
// making the same rng calls as rng.Perm(len(p)) and producing the same
// permutation.
func fillPerm(p []int, rng *rand.Rand) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

// cornerWitness point-checks the corners of a box (up to 2^8 of them)
// and returns a copy of the first satisfying corner, or nil. h must
// hold the box midpoint on entry and is used as scratch.
func (s *System) cornerWitness(box []interval.Interval, h []float64) []float64 {
	d := len(box)
	if d > 8 {
		d = 8 // cap the enumeration; remaining dims stay at midpoint
	}
	for mask := 0; mask < 1<<d; mask++ {
		for i := 0; i < d; i++ {
			if mask&(1<<i) != 0 {
				h[i] = box[i].Hi
			} else {
				h[i] = box[i].Lo
			}
		}
		if s.Satisfies(h) {
			return append([]float64(nil), h...)
		}
	}
	return nil
}

// BestEffort returns the lowest-violation hole vector found within the
// sampling/repair budget; see the Problem-level BestEffort.
//
// Deprecated: this wrapper cannot be canceled. Use
// NewSearch(s).BestEffort(ctx, opts, rng).
func (s *System) BestEffort(opts Options, rng *rand.Rand) (holes []float64, loss float64, satisfied []bool) {
	holes, loss, satisfied, _ = NewSearch(s).BestEffort(context.Background(), opts, rng)
	return holes, loss, satisfied
}

func (s *System) bestEffort(ctx context.Context, opts Options, rng *rand.Rand) (holes []float64, loss float64, satisfied []bool, err error) {
	domains := s.sk.Domains()
	stats := s.statsOf(opts)
	best := randomVector(domains, rng)
	bestLoss := s.Violation(best)
	consider := func(h []float64) {
		if l := s.Violation(h); l < bestLoss {
			best, bestLoss = append([]float64(nil), h...), l
		}
	}
	for _, hint := range opts.Hints {
		consider(clampToBox(hint, domains))
	}
	scratch := make([]float64, len(domains))
	for i := 0; i < opts.Samples && bestLoss > 0; i++ {
		if err := ctx.Err(); err != nil {
			return best, bestLoss, s.SatisfiedMask(best, nil), err
		}
		fillRandomVector(scratch, domains, rng)
		consider(scratch)
	}
	for r := 0; r < opts.RepairRestarts && bestLoss > 0; r++ {
		if err := ctx.Err(); err != nil {
			return best, bestLoss, s.SatisfiedMask(best, nil), err
		}
		fillRandomVector(scratch, domains, rng)
		start := scratch
		if r == 0 && len(opts.Hints) > 0 {
			start = clampToBox(opts.Hints[0], domains)
		}
		s.repair(start, domains, opts.RepairSteps, rng, stats)
		consider(start)
	}
	return best, bestLoss, s.SatisfiedMask(best, nil), nil
}

// FindDiverse returns up to k consistent hole vectors that are mutually
// spread out in the hole box; see the Problem-level FindDiverse.
//
// Deprecated: this wrapper cannot be canceled. Use
// NewSearch(s).FindDiverse(ctx, k, opts, rng).
func (s *System) FindDiverse(k int, opts Options, rng *rand.Rand) [][]float64 {
	out, _ := NewSearch(s).FindDiverse(context.Background(), k, opts, rng)
	return out
}

func (s *System) findDiverse(ctx context.Context, k int, opts Options, rng *rand.Rand) ([][]float64, error) {
	// Single-candidate fast path: diversity is meaningless for k ≤ 1,
	// so skip the pool build — and with it the per-worker budget
	// partition (seed derivation + job allocation) that parallelWitnesses
	// would otherwise redo on every call. FindCandidate's staging covers
	// hints, sampling, repair, and the exhaustive fallback.
	if k <= 1 {
		h, st, err := s.findCandidate(ctx, opts, rng)
		if err != nil || st != StatusSat {
			return nil, err
		}
		return [][]float64{h}, nil
	}

	domains := s.sk.Domains()
	stats := s.statsOf(opts)
	var pool [][]float64

	// Warm-start hints first: they anchor the pool in the known-feasible
	// region and their repairs land on version-space boundaries.
	for _, hint := range opts.Hints {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		h := clampToBox(hint, domains)
		if s.hintSatisfies(h) {
			if stats != nil {
				stats.HintHits.Add(1)
			}
			pool = append(pool, h)
			continue
		}
		if stats != nil {
			stats.Repairs.Add(1)
		}
		if s.repair(h, domains, opts.RepairSteps, rng, stats) {
			pool = append(pool, h)
		}
	}

	// Pool from sampling, topped up with repaired points (they land on
	// feasibility boundaries, which is where behavioral differences
	// concentrate). With Workers > 1 the search fans out.
	if opts.Workers > 1 {
		per := (8*k + opts.Workers - 1) / opts.Workers
		ws, err := s.parallelWitnesses(ctx, opts, rng, per)
		if err != nil {
			return nil, err
		}
		pool = append(pool, ws...)
	} else {
		if len(pool) < 8*k {
			if _, err := s.sampleSatisfying(ctx, opts.Samples, opts.batchLanes(), domains, rng, stats, func(pt []float64) bool {
				pool = append(pool, append([]float64(nil), pt...))
				return len(pool) < 8*k
			}); err != nil {
				return nil, err
			}
		}
		scratch := make([]float64, len(domains))
		for r := 0; r < opts.RepairRestarts && len(pool) < 8*k; r++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if stats != nil {
				stats.Repairs.Add(1)
			}
			fillRandomVector(scratch, domains, rng)
			if s.repair(scratch, domains, opts.RepairSteps, rng, stats) {
				pool = append(pool, append([]float64(nil), scratch...))
			}
		}
	}
	if len(pool) == 0 {
		h, st, err := s.findCandidate(ctx, opts, rng)
		if err != nil {
			return nil, err
		}
		if st == StatusSat {
			pool = append(pool, h)
		}
	}
	if len(pool) == 0 {
		return nil, nil
	}
	if len(pool) <= k {
		return pool, nil
	}
	return diverseSubset(pool, k, domains), nil
}

// diverseSubset is the greedy max-min selection over a witness pool,
// seeded with the pool point farthest from the box center (normalized
// coordinates).
func diverseSubset(pool [][]float64, k int, domains []interval.Interval) [][]float64 {
	norm := func(h []float64) []float64 {
		out := make([]float64, len(h))
		for i, d := range domains {
			w := d.Width()
			if w == 0 {
				continue
			}
			out[i] = (h[i] - d.Lo) / w
		}
		return out
	}
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	normed := make([][]float64, len(pool))
	for i, h := range pool {
		normed[i] = norm(h)
	}
	center := make([]float64, len(domains))
	for i := range center {
		center[i] = 0.5
	}
	first, best := 0, -1.0
	for i := range pool {
		if d := dist(normed[i], center); d > best {
			first, best = i, d
		}
	}
	chosen := []int{first}
	for len(chosen) < k {
		next, bestMin := -1, -1.0
		for i := range pool {
			minD := math.Inf(1)
			for _, c := range chosen {
				if i == c {
					minD = 0
					break
				}
				if d := dist(normed[i], normed[c]); d < minD {
					minD = d
				}
			}
			if minD > bestMin {
				next, bestMin = i, minD
			}
		}
		if next < 0 || bestMin == 0 {
			break
		}
		chosen = append(chosen, next)
	}
	out := make([][]float64, len(chosen))
	for i, c := range chosen {
		out[i] = pool[c]
	}
	return out
}

// fillRandomVector draws a uniform point from the box into h, consuming
// the RNG exactly like randomVector.
func fillRandomVector(h []float64, domains []interval.Interval, rng *rand.Rand) {
	for i, d := range domains {
		h[i] = d.Lo + rng.Float64()*d.Width()
	}
}

// fillMidpoint writes the box midpoint into out.
func fillMidpoint(out []float64, box []interval.Interval) {
	for i, iv := range box {
		out[i] = iv.Mid()
	}
}
