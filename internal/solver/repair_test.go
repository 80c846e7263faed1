package solver

import (
	"math"
	"math/rand"
	"testing"

	"compsynth/internal/expr"
	"compsynth/internal/interval"
	"compsynth/internal/scenario"
	"compsynth/internal/sketch"
)

// raceEnabled is set by race_test.go under the race detector, whose
// sync.Pool drops pooled items at random.
var raceEnabled bool

// referenceRepair is the repair loop before bounded probes: every
// coordinate probe recomputes the full hinge loss with Violation. It is
// the differential oracle for System.repair, which must return the same
// point and verdict bit for bit and leave rng in the same state. evals
// is the number of constraint programs the loop evaluated.
func referenceRepair(s *System, start []float64, domains []interval.Interval, steps int, rng *rand.Rand) (h []float64, ok bool, evals int64) {
	n := int64(len(s.cps) + len(s.cts))
	violation := func(h []float64) float64 {
		evals += n
		return s.Violation(h)
	}
	h = append([]float64(nil), start...)
	loss := violation(h)
	if loss == 0 {
		return h, s.Satisfies(h), evals
	}
	step := make([]float64, len(domains))
	for i, d := range domains {
		step[i] = d.Width() / 4
	}
	for it := 0; it < steps && loss > 0; it++ {
		improved := false
		for _, i := range rng.Perm(len(h)) {
			for _, dir := range []float64{+1, -1} {
				cand := h[i] + dir*step[i]
				if cand < domains[i].Lo || cand > domains[i].Hi {
					continue
				}
				old := h[i]
				h[i] = cand
				if l := violation(h); l < loss {
					loss = l
					improved = true
					break
				}
				h[i] = old
			}
		}
		if loss == 0 {
			return h, s.Satisfies(h), evals
		}
		if !improved {
			for i := range step {
				step[i] /= 2
			}
			allTiny := true
			for i, st := range step {
				if st > domains[i].Width()*1e-12 {
					allTiny = false
					break
				}
			}
			if allTiny {
				break
			}
		}
	}
	return h, loss == 0 && s.Satisfies(h), evals
}

// nanSketch is a sketch whose constraint differences are often NaN or
// ±Inf: when x ≤ ??c its body divides by a zero hole difference
// (0/0 = NaN when y > 0.5, ±??a/0 = ±Inf otherwise).
func nanSketch() *sketch.Sketch {
	body := expr.MustParse(`
		if x > ??c then
			??a * x + ??b * y
		else if y > 0.5 then
			(??a - ??a) / (??b - ??b)
		else
			??a / (??b - ??b)`)
	space := scenario.MustNewSpace([]string{"x", "y"},
		[]interval.Interval{interval.New(0, 1), interval.New(0, 1)})
	return sketch.MustNew("nan", body, space, map[string]interval.Interval{
		"a": interval.New(-1, 1),
		"b": interval.New(-1, 1),
		"c": interval.New(0, 1),
	})
}

// randomSystem builds a system of up to 14 preferences and 3 ties over
// a random sketch and margin (the empty system included). Half the
// systems orient their preferences by a hidden hole vector, so they are
// satisfiable and repairs can succeed; the rest orient them at random.
// It returns the hidden vector too.
func randomSystem(rng *rand.Rand) (*System, []float64) {
	sk := sketch.SWAN()
	if rng.Intn(3) == 0 {
		sk = nanSketch()
	}
	margin := 0.0
	if rng.Intn(2) == 0 {
		margin = 1e-3
	}
	s := NewSystem(sk, margin, nil, nil)
	hidden := randomVector(sk.Domains(), rng)
	consistent := rng.Intn(2) == 0
	for i, n := 0, rng.Intn(15); i < n; i++ {
		a, b := sk.Space().Random(rng), sk.Space().Random(rng)
		if (consistent && sk.Eval(b, hidden) > sk.Eval(a, hidden)) || (!consistent && rng.Intn(2) == 0) {
			a, b = b, a
		}
		s.AddPref(Pref{Better: a, Worse: b})
	}
	for i, n := 0, rng.Intn(4); i < n; i++ {
		s.AddTie(Tie{A: sk.Space().Random(rng), B: sk.Space().Random(rng), Band: 1 + 100*rng.Float64()})
	}
	if rng.Intn(4) == 0 {
		mid := sk.Domains()[0].Mid()
		s.viable = func(h []float64) bool { return h[0] <= mid }
	}
	return s, hidden
}

// cloneScratch deep-copies the probe state of sc.
func cloneScratch(sc *repairScratch) *repairScratch {
	return &repairScratch{
		terms: append([]float64(nil), sc.terms...),
		next:  append([]float64(nil), sc.next...),
		live:  append([]int(nil), sc.live...),
	}
}

// TestProbeMatchesViolation checks the bounded probe against the full
// hinge loss: it accepts exactly when Violation(h) < bound, an accepted
// loss equals Violation(h) bitwise, and on accept the scratch holds h's
// terms and live set.
func TestProbeMatchesViolation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var accepts, rejects, nanDiffs, infTerms, empty int
	for trial := 0; trial < 600; trial++ {
		s, _ := randomSystem(rng)
		if len(s.cps)+len(s.cts) == 0 {
			empty++
		}
		domains := s.sk.Domains()
		h0 := randomVector(domains, rng)
		sc := s.getRepair(len(domains))
		for c := range sc.terms {
			sc.terms[c] = s.hingeTerm(c, h0)
		}
		sc.noteLive()
		for k := 0; k < 6; k++ {
			h := randomVector(domains, rng)
			for i := range s.cps {
				if math.IsNaN(s.cps[i].diff.Eval(nil, h)) {
					nanDiffs++
				}
			}
			want := s.Violation(h)
			if math.IsInf(want, 1) {
				infTerms++
			}
			bounds := []float64{s.Violation(h0), want, math.Nextafter(want, math.Inf(1)),
				math.Nextafter(want, math.Inf(-1)), 0, math.Inf(1), math.NaN()}
			for _, bound := range bounds {
				probe := cloneScratch(sc)
				got, ok := s.probe(h, bound, probe)
				if ok != (want < bound) {
					t.Fatalf("trial %d: probe(bound=%v) accepted=%v, Violation=%v", trial, bound, ok, want)
				}
				if !ok {
					rejects++
					continue
				}
				accepts++
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d: accepted loss %v (bits %x), Violation %v (bits %x)",
						trial, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				live := 0
				for c, term := range probe.terms {
					if term != s.hingeTerm(c, h) {
						t.Fatalf("trial %d: term %d = %v after accept, want %v", trial, c, term, s.hingeTerm(c, h))
					}
					if term > 0 {
						if live >= len(probe.live) || probe.live[live] != c {
							t.Fatalf("trial %d: live set %v misses constraint %d", trial, probe.live, c)
						}
						live++
					}
				}
				if live != len(probe.live) {
					t.Fatalf("trial %d: live set %v, want %d entries", trial, probe.live, live)
				}
			}
		}
	}
	if accepts == 0 || rejects == 0 || nanDiffs == 0 || infTerms == 0 || empty == 0 {
		t.Fatalf("coverage: %d accepts, %d rejects, %d NaN diffs, %d infinite losses, %d empty systems",
			accepts, rejects, nanDiffs, infTerms, empty)
	}
}

// TestRepairMatchesReference pins the bounded-probe repair to the
// full-loss reference loop: same final point bit for bit, same verdict,
// same rng state after, and never more constraint evaluations.
func TestRepairMatchesReference(t *testing.T) {
	var sat, unsat, atStart int
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, hidden := randomSystem(rng)
		domains := s.sk.Domains()
		start := randomVector(domains, rng)
		if rng.Intn(8) == 0 {
			start = hidden // loss 0 on entry when the system is consistent
		}
		steps := []int{0, 1, 5, 40, 160}[rng.Intn(5)]
		refRNG := rand.New(rand.NewSource(seed * 7919))
		newRNG := rand.New(rand.NewSource(seed * 7919))

		want, wantOK, refEvals := referenceRepair(s, start, domains, steps, refRNG)
		stats := &Stats{}
		h := append([]float64(nil), start...)
		gotOK := s.repair(h, domains, steps, newRNG, stats)

		if gotOK != wantOK {
			t.Fatalf("seed %d: ok = %v, reference %v", seed, gotOK, wantOK)
		}
		for i := range want {
			if math.Float64bits(h[i]) != math.Float64bits(want[i]) {
				t.Fatalf("seed %d: h = %v, reference %v", seed, h, want)
			}
		}
		if a, b := newRNG.Int63(), refRNG.Int63(); a != b {
			t.Fatalf("seed %d: rng diverged after repair (%d vs %d)", seed, a, b)
		}
		if got := stats.RepairEvals.Load(); got > refEvals {
			t.Fatalf("seed %d: %d repair evals, reference loop needed only %d", seed, got, refEvals)
		}
		switch {
		case s.Violation(start) == 0:
			atStart++
		case gotOK:
			sat++
		default:
			unsat++
		}
	}
	if sat == 0 || unsat == 0 || atStart == 0 {
		t.Fatalf("coverage: %d repaired, %d failed, %d feasible at start", sat, unsat, atStart)
	}
}

// TestRepairEvalsBounded checks that RepairEvals is deterministic and
// that bounded probes cut the work of a real repair workload.
func TestRepairEvalsBounded(t *testing.T) {
	p, _ := swanProblem(t, 30, 5)
	s := compileSystem(p, nil)
	domains := s.sk.Domains()
	run := func() (evals, refEvals int64) {
		rng := rand.New(rand.NewSource(9))
		refRNG := rand.New(rand.NewSource(9))
		stats := &Stats{}
		for r := 0; r < 20; r++ {
			h := randomVector(domains, rng)
			_ = randomVector(domains, refRNG)
			_, _, n := referenceRepair(s, h, domains, 160, refRNG)
			refEvals += n
			s.repair(h, domains, 160, rng, stats)
		}
		return stats.RepairEvals.Load(), refEvals
	}
	evals, refEvals := run()
	if again, _ := run(); again != evals {
		t.Fatalf("RepairEvals not deterministic: %d then %d", evals, again)
	}
	if evals == 0 || 2*evals > refEvals {
		t.Fatalf("RepairEvals = %d, want at most half the reference loop's %d", evals, refEvals)
	}
}

// TestFillPermMatchesRandPerm pins fillPerm to math/rand's Perm: same
// permutation, same rng state after.
func TestFillPermMatchesRandPerm(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for seed := int64(1); seed <= 20; seed++ {
			a := rand.New(rand.NewSource(seed))
			b := rand.New(rand.NewSource(seed))
			want := a.Perm(n)
			got := make([]int, n)
			fillPerm(got, b)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d seed=%d: fillPerm = %v, Perm = %v", n, seed, got, want)
				}
			}
			if x, y := a.Int63(), b.Int63(); x != y {
				t.Fatalf("n=%d seed=%d: rng state diverged", n, seed)
			}
		}
	}
}

// TestRepairAllocs pins a warm repair call to zero allocations: its
// scratch comes from the System's pool and it descends in place.
func TestRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
	p, _ := swanProblem(t, 30, 11)
	s := compileSystem(p, nil)
	domains := s.sk.Domains()
	rng := rand.New(rand.NewSource(3))
	stats := &Stats{}
	start := randomVector(domains, rng)
	h := make([]float64, len(start))
	repair := func() {
		copy(h, start)
		s.repair(h, domains, 160, rng, stats)
	}
	repair() // warm the pool
	if a := testing.AllocsPerRun(50, repair); a != 0 {
		t.Fatalf("warm repair allocates %v times per call", a)
	}
}
