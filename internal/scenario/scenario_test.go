package scenario

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"compsynth/internal/interval"
)

func TestNewSpaceValidation(t *testing.T) {
	cases := []struct {
		names  []string
		ranges []interval.Interval
	}{
		{nil, nil},
		{[]string{"a"}, nil},
		{[]string{"a", "a"}, []interval.Interval{interval.New(0, 1), interval.New(0, 1)}},
		{[]string{""}, []interval.Interval{interval.New(0, 1)}},
		{[]string{"a"}, []interval.Interval{interval.Empty()}},
		{[]string{"a"}, []interval.Interval{interval.New(0, math.Inf(1))}},
	}
	for i, c := range cases {
		if _, err := NewSpace(c.names, c.ranges); err == nil {
			t.Errorf("case %d: invalid space accepted", i)
		}
	}
	if _, err := NewSpace([]string{"x"}, []interval.Interval{interval.New(0, 1)}); err != nil {
		t.Errorf("valid space rejected: %v", err)
	}
}

func TestSWANSpace(t *testing.T) {
	sp := SWANSpace()
	if sp.Dim() != 2 {
		t.Fatalf("Dim = %d", sp.Dim())
	}
	r, ok := sp.Range("throughput")
	if !ok || r != interval.New(0, 10) {
		t.Errorf("throughput range = %v", r)
	}
	r, ok = sp.Range("latency")
	if !ok || r != interval.New(0, 200) {
		t.Errorf("latency range = %v", r)
	}
	if _, ok := sp.Range("nope"); ok {
		t.Error("unknown metric found")
	}
	if i, ok := sp.Index("latency"); !ok || i != 1 {
		t.Errorf("Index(latency) = %d, %v", i, ok)
	}
}

func TestContainsAndClamp(t *testing.T) {
	sp := SWANSpace()
	if !sp.Contains(Scenario{5, 100}) {
		t.Error("inside point rejected")
	}
	if sp.Contains(Scenario{-1, 100}) || sp.Contains(Scenario{5, 201}) {
		t.Error("outside point accepted")
	}
	if sp.Contains(Scenario{5}) {
		t.Error("wrong-arity scenario accepted")
	}
	c := sp.Clamp(Scenario{-5, 500})
	if c[0] != 0 || c[1] != 200 {
		t.Errorf("Clamp = %v", c)
	}
	// Clamp pads missing coordinates.
	c = sp.Clamp(Scenario{5})
	if len(c) != 2 || c[0] != 5 || c[1] != 0 {
		t.Errorf("Clamp short = %v", c)
	}
}

func TestRandomInsideSpace(t *testing.T) {
	sp := SWANSpace()
	rng := rand.New(rand.NewSource(3))
	for _, s := range sp.RandomN(rng, 1000) {
		if !sp.Contains(s) {
			t.Fatalf("Random produced %v outside space", s)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	sp := SWANSpace()
	a := sp.RandomN(rand.New(rand.NewSource(9)), 10)
	b := sp.RandomN(rand.New(rand.NewSource(9)), 10)
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("same seed produced different scenarios")
		}
	}
}

// TestRandomNMatchesRandom pins RandomN to n calls of Random: the same
// scenarios and the same rng state after. The scenarios share a backing
// array, so an append to one must not reach its neighbor.
func TestRandomNMatchesRandom(t *testing.T) {
	sp := SWANSpace()
	a, b := rand.New(rand.NewSource(4)), rand.New(rand.NewSource(4))
	got := sp.RandomN(a, 5)
	for i := range got {
		if want := sp.Random(b); !got[i].Equal(want) {
			t.Fatalf("RandomN[%d] = %v, Random = %v", i, got[i], want)
		}
	}
	if a.Int63() != b.Int63() {
		t.Fatal("RandomN left rng in a different state than n Random calls")
	}
	next := got[1][0]
	_ = append(got[0], -1)
	if got[1][0] != next {
		t.Fatal("append to one scenario overwrote the next")
	}
}

func TestGrid(t *testing.T) {
	sp := SWANSpace()
	g := sp.Grid(3)
	if len(g) != 9 {
		t.Fatalf("Grid(3) size = %d, want 9", len(g))
	}
	// Corners present.
	corners := []Scenario{{0, 0}, {10, 0}, {0, 200}, {10, 200}}
	for _, c := range corners {
		found := false
		for _, s := range g {
			if s.AlmostEqual(c, 1e-12) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("corner %v missing from grid", c)
		}
	}
	for _, s := range g {
		if !sp.Contains(s) {
			t.Errorf("grid point %v outside space", s)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Grid(1) did not panic")
		}
	}()
	sp.Grid(1)
}

func TestScenarioOps(t *testing.T) {
	a := Scenario{1, 2}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares backing array")
	}
	if !a.Equal(Scenario{1, 2}) || a.Equal(Scenario{1, 3}) || a.Equal(Scenario{1}) {
		t.Error("Equal wrong")
	}
	if !a.AlmostEqual(Scenario{1.0001, 2}, 0.001) {
		t.Error("AlmostEqual too strict")
	}
	if a.AlmostEqual(Scenario{1.1, 2}, 0.001) {
		t.Error("AlmostEqual too lax")
	}
	if d := (Scenario{0, 0}).Dist(Scenario{3, 4}); d != 5 {
		t.Errorf("Dist = %v", d)
	}
	if d := (Scenario{0}).Dist(Scenario{0, 1}); !math.IsInf(d, 1) {
		t.Errorf("Dist arity mismatch = %v", d)
	}
}

func TestFormat(t *testing.T) {
	sp := SWANSpace()
	s := sp.Format(Scenario{2.5, 100})
	if !strings.Contains(s, "throughput=2.5") || !strings.Contains(s, "latency=100") {
		t.Errorf("Format = %q", s)
	}
}

func TestStoreAddGetDedup(t *testing.T) {
	sp := SWANSpace()
	st := NewStore(sp, 1e-9)
	id1, err := st.Add(Scenario{2, 100})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := st.Add(Scenario{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Error("distinct scenarios share ID")
	}
	id3, err := st.Add(Scenario{2, 100})
	if err != nil {
		t.Fatal(err)
	}
	if id3 != id1 {
		t.Error("duplicate scenario got new ID")
	}
	if st.Len() != 2 {
		t.Errorf("Len = %d", st.Len())
	}
	got, ok := st.Get(id2)
	if !ok || !got.Equal(Scenario{5, 10}) {
		t.Errorf("Get = %v, %v", got, ok)
	}
	if _, ok := st.Get(99); ok {
		t.Error("Get out of range succeeded")
	}
	if _, ok := st.Get(-1); ok {
		t.Error("Get negative succeeded")
	}
}

func TestStoreToleranceDedup(t *testing.T) {
	st := NewStore(SWANSpace(), 0.01)
	id1, _ := st.Add(Scenario{2, 100})
	id2, _ := st.Add(Scenario{2.005, 100.005})
	if id1 != id2 {
		t.Error("near-duplicate not deduplicated")
	}
	id3, _ := st.Add(Scenario{2.5, 100})
	if id3 == id1 {
		t.Error("distinct scenario deduplicated")
	}
}

func TestStoreRejectsOutside(t *testing.T) {
	st := NewStore(SWANSpace(), 0)
	if _, err := st.Add(Scenario{-1, 0}); err == nil {
		t.Error("outside scenario accepted")
	}
}

func TestStoreAllIsCopy(t *testing.T) {
	st := NewStore(SWANSpace(), 0)
	if _, err := st.Add(Scenario{1, 1}); err != nil {
		t.Fatal(err)
	}
	all := st.All()
	all[0][0] = 99
	got, _ := st.Get(0)
	if got[0] != 1 {
		t.Error("All exposed internal storage")
	}
}

func TestSpaceAccessorsAreCopies(t *testing.T) {
	sp := SWANSpace()
	n := sp.Names()
	n[0] = "mutated"
	if sp.Names()[0] != "throughput" {
		t.Error("Names exposed internal slice")
	}
	r := sp.Ranges()
	r[0] = interval.New(-1, 1)
	if got := sp.Ranges()[0]; got != interval.New(0, 10) {
		t.Error("Ranges exposed internal slice")
	}
}

func TestLatinHypercubeStratification(t *testing.T) {
	sp := SWANSpace()
	rng := rand.New(rand.NewSource(8))
	n := 10
	scs := sp.LatinHypercube(rng, n)
	if len(scs) != n {
		t.Fatalf("got %d scenarios", len(scs))
	}
	// Each dimension: exactly one sample per stratum.
	for d, r := range sp.Ranges() {
		seen := make([]bool, n)
		for _, s := range scs {
			if !r.Contains(s[d]) {
				t.Fatalf("sample %v outside range in dim %d", s[d], d)
			}
			stratum := int((s[d] - r.Lo) / r.Width() * float64(n))
			if stratum == n {
				stratum = n - 1
			}
			if seen[stratum] {
				t.Fatalf("dim %d stratum %d hit twice", d, stratum)
			}
			seen[stratum] = true
		}
	}
}

func TestLatinHypercubeEdgeCases(t *testing.T) {
	sp := SWANSpace()
	rng := rand.New(rand.NewSource(9))
	if got := sp.LatinHypercube(rng, 0); got != nil {
		t.Error("n=0 returned scenarios")
	}
	one := sp.LatinHypercube(rng, 1)
	if len(one) != 1 || !sp.Contains(one[0]) {
		t.Errorf("n=1 = %v", one)
	}
}
