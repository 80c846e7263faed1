package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"compsynth/internal/experiments"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 100)
	v, err := percentile(xs, 0.9)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	if v, err := percentile(xs[:20], 0.5); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
}

// On a host 1.5x slower than reference speed, times shrink and rates
// grow by 1.5x; the unscaled values stay in the context.
func TestScaleToReference(t *testing.T) {
	rep := newReport()
	for _, m := range scaledMetrics {
		rep.metrics[m.name] = 3
	}
	rep.metrics["queries_per_session"] = 3
	slow := refNominal * 3 / 2
	if err := rep.scaleToReference([]time.Duration{refNominal, slow, 2 * refNominal}, true); err != nil {
		t.Fatal(err)
	}
	for _, m := range scaledMetrics {
		want := 2.0
		if m.rate {
			want = 4.5
		}
		if got := rep.metrics[m.name]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s = %v, want %v", m.name, got, want)
		}
		if u := rep.context["unscaled"].(map[string]float64)[m.name]; u != 3 {
			t.Errorf("unscaled %s = %v, want 3", m.name, u)
		}
	}
	if rep.metrics["queries_per_session"] != 3 {
		t.Error("a count must not be scaled")
	}
	if err := newReport().scaleToReference(nil, true); err == nil {
		t.Error("scaling without kernel timings must fail")
	}
	rep = newReport()
	rep.metrics["setup_s"] = 3
	if err := rep.scaleToReference([]time.Duration{slow}, false); err != nil || rep.metrics["setup_s"] != 3 {
		t.Errorf("set-up off the CPU path must stay unscaled: %v, %v", rep.metrics["setup_s"], err)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 100, End: 200}
	kids := []span{
		{Start: 110, End: 140},
		{Start: 130, End: 150}, // overlaps the first: 110-150 counts once
		{Start: 160, End: 170},
		{Start: 190, End: 260}, // clipped to the parent's end
		{Start: 20, End: 90},   // outside the parent
	}
	// Covered: 110-150 (40) + 160-170 (10) + 190-200 (10) = 60.
	if got, want := selfTime(parent, kids), time.Duration(40); got != want {
		t.Fatalf("self time = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children = %v, want the whole span", got)
	}
}

// TestStepperMatchesRunOnceFast pins table1-fast as the effort-gate
// workload: the benchmark's Stepper client asks exactly as many queries,
// and ends on the same objective, as experiments.RunOnce's Fast runs.
func TestStepperMatchesRunOnceFast(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full synthesis sessions")
	}
	for seed := int64(1); seed <= 4; seed++ {
		want, err := experiments.RunOnce(experiments.RunConfig{Seed: seed, Fast: true})
		if err != nil {
			t.Fatal(err)
		}
		got, err := runStepper(context.Background(), true, seed, nil, &sessionTimes{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.queries != want.Queries {
			t.Errorf("seed %d: Stepper client asked %d queries, RunOnce Fast %d", seed, got.queries, want.Queries)
		}
		if !slices.Equal(got.final, want.Final.Holes()) {
			t.Errorf("seed %d: final holes %v, RunOnce Fast %v", seed, got.final, want.Final.Holes())
		}
	}
}

func TestSeedQueueRunsWholeShuffledPasses(t *testing.T) {
	seeds := []int64{1, 2, 3, 4, 5}
	q := newSeedQueue(seeds, 7, time.Now().Add(-time.Second))
	var got []int64
	for {
		s, ok := q.next()
		if !ok {
			break
		}
		got = append(got, s)
	}
	// A past deadline still runs exactly one whole pass.
	slices.Sort(got)
	if !slices.Equal(got, seeds) || len(q.starts) != 1 {
		t.Fatalf("got %v over %d passes, want one pass of %v", got, len(q.starts), seeds)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the printed metrics and
// BENCHMARK.json's declared metrics in step.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, defs []metricDef, declared []struct{ Name, Unit string }) {
		if len(defs) != len(declared) {
			t.Errorf("%s: program prints %d metrics, BENCHMARK.json declares %d", kind, len(defs), len(declared))
			return
		}
		for i, d := range defs {
			if d.name != declared[i].Name || d.unit != declared[i].Unit {
				t.Errorf("%s[%d]: program prints %s (%s), BENCHMARK.json declares %s (%s)",
					kind, i, d.name, d.unit, declared[i].Name, declared[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, doc.EndToEnd)
	check("per_layer", perLayer, doc.PerLayer)
}
