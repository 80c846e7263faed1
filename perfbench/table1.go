package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/obs"
	"compsynth/internal/oracle"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// table1Config builds the Table 1 session config for one seed: the SWAN
// sketch, a ground-truth oracle on DefaultSWANTarget, planner on, one
// pair per iteration. fast selects experiments.RunOnce's Fast budgets;
// otherwise the solver defaults (paper fidelity) apply.
func table1Config(fast bool, seed int64) (core.Config, *oracle.GroundTruth, error) {
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		return core.Config{}, nil, err
	}
	cfg := core.Config{Sketch: sk, Seed: seed}
	if fast {
		cfg.Solver.Samples = 150
		cfg.Solver.RepairRestarts = 5
		cfg.Solver.RepairSteps = 60
		cfg.Solver.MinBoxWidth = 1.0 / 64
		cfg.Solver.MaxBoxes = 10000
		cfg.Distinguish = solver.DistinguishOptions{Candidates: 6, PairSamples: 250, Gamma: 2, MaximizeGap: true}
	} else {
		cfg.Solver = solver.DefaultOptions()
		cfg.Distinguish = solver.DefaultDistinguishOptions()
	}
	cfg.Solver.Stats = &solver.Stats{}
	return cfg, oracle.NewGroundTruth(target, 1e-9), nil
}

// sessionTimes collects the client-side timings of sessions.
type sessionTimes struct {
	answerWait []time.Duration // last answer of a round sent -> next round (or done) back
	ack        []time.Duration // one judgment sent -> acknowledged
	step       []time.Duration // NextBatch calls (traced run only)
	oracle     []time.Duration // the benchmark's own oracle answers (traced run only)
	newStepper time.Duration
}

// summary is what a finished Stepper-driven session leaves behind for
// the checks and the per-layer counters.
type summary struct {
	seed       int64
	queries    int
	converged  bool
	final      []float64
	iterations int
	edges      int
	stats      solver.StatsSnapshot
}

// runStepper drives one session through core.Stepper, answering each
// round from the ground truth, the way an architect answers only after
// seeing the query. With rec set it records core and oracle spans.
func runStepper(ctx context.Context, fast bool, seed int64, reg *obs.Registry, tm *sessionTimes, rec *recorder) (summary, error) {
	root := rec.begin("session", 0, fmt.Sprintf("seed-%d", seed), "")
	defer root.end()
	t0 := time.Now()
	sp := rec.begin("core.new", root.id(), "", "")
	cfg, gt, err := table1Config(fast, seed)
	if err != nil {
		return summary{}, err
	}
	if reg != nil {
		cfg.Obs = &obs.Observer{Registry: reg}
	}
	st, err := core.NewStepper(cfg)
	sp.end()
	tm.newStepper += time.Since(t0)
	if err != nil {
		return summary{}, err
	}
	defer st.Close()
	queries := 0
	var lastSent time.Time
	for {
		sp := rec.begin("core.step", root.id(), "", "")
		s0 := time.Now()
		qs, err := st.NextBatch(ctx)
		now := time.Now()
		sp.end()
		if rec != nil {
			tm.step = append(tm.step, now.Sub(s0))
		}
		if err != nil {
			return summary{}, err
		}
		if !lastSent.IsZero() {
			tm.answerWait = append(tm.answerWait, now.Sub(lastSent))
		}
		if qs == nil {
			break
		}
		for i, q := range qs {
			sp := rec.begin("oracle.answer", root.id(), "", "")
			o0 := time.Now()
			pref := gt.Compare(q.A, q.B)
			if rec != nil {
				tm.oracle = append(tm.oracle, time.Since(o0))
			}
			sp.end()
			sp = rec.begin("core.answer", root.id(), "", "")
			a0 := time.Now()
			if i == len(qs)-1 {
				lastSent = a0
			}
			err := st.AnswerSeq(q.Seq, oracle.Judgment{Pref: pref, Confidence: 1})
			tm.ack = append(tm.ack, time.Since(a0))
			sp.end()
			if err != nil {
				return summary{}, fmt.Errorf("seed %d: answer %d: %w", seed, q.Seq, err)
			}
			queries++
		}
	}
	res, err := st.Result()
	if err != nil {
		return summary{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	return summary{
		seed: seed, queries: queries, converged: res.Converged, final: res.Final.Holes(),
		iterations: res.Iterations, edges: res.Graph.NumEdges(), stats: cfg.Solver.Stats.Snapshot(),
	}, nil
}

// table1Ref is the batch synthesizer's run of a seed (core.New + Run,
// no Stepper): the result every Stepper-driven session of that seed must
// reproduce.
type table1Ref struct {
	queries   int
	final     []float64
	converged bool
	agreement float64
}

func table1References(fast bool, seeds []int64) (map[int64]table1Ref, error) {
	var mu sync.Mutex
	out := map[int64]table1Ref{}
	err := forEachSeed(seeds, func(seed int64) error {
		cfg, gt, err := table1Config(fast, seed)
		if err != nil {
			return err
		}
		cfg.Oracle = gt
		synth, err := core.New(cfg)
		if err != nil {
			return err
		}
		res, err := synth.Run()
		if err != nil {
			return fmt.Errorf("batch run seed %d: %w", seed, err)
		}
		agr, err := agreement(res, seed)
		if err != nil {
			return err
		}
		mu.Lock()
		out[seed] = table1Ref{queries: res.Queries, final: res.Final.Holes(), converged: res.Converged, agreement: agr}
		mu.Unlock()
		return nil
	})
	return out, err
}

// agreement is experiments.RunOnce's check: ranking agreement with the
// ground truth over 2000 random pairs drawn from a seed-fixed stream.
func agreement(res *core.Result, seed int64) (float64, error) {
	target, err := sketch.DefaultSWANTarget.Candidate(res.Final.Sketch())
	if err != nil {
		return 0, err
	}
	return core.Validate(res, oracle.NewGroundTruth(target, 1e-9), 2000, rand.New(rand.NewSource(seed+7919))), nil
}
