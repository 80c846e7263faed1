package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"compsynth/internal/core"
	"compsynth/internal/fleet"
	"compsynth/internal/oracle"
	"compsynth/internal/scenario"
	"compsynth/internal/service"
	"compsynth/internal/sketch"
	"compsynth/internal/solver"
)

// fleetMembers and fleetReplicas shape the in-process fleet: every
// session's journal is fsynced on its owner and acked by one standby.
const (
	fleetMembers  = 3
	fleetReplicas = 2
)

// fleetSpec is a table1-fast session as the service API can express it
// (all Fast budgets but MinBoxWidth, which branch-and-prune alone reads),
// with three pairs per round so two of every three judgments close no
// round.
func fleetSpec(seed int64) service.SessionSpec {
	return service.SessionSpec{
		Seed:              seed,
		PairsPerIteration: 3,
		Solver:            &service.SolverSpec{Samples: 150, RepairRestarts: 5, RepairSteps: 60, MaxBoxes: 10000},
		Distinguish:       &service.DistinguishSpec{Candidates: 6, PairSamples: 250, Gamma: 2},
	}
}

// fleetEnv is one in-process fleet: members behind loopback servers,
// writing journals under dir, and a router in front of them.
type fleetEnv struct {
	dir    string
	mgrs   []*service.Manager
	srvs   []*httptest.Server
	router *fleet.Router
	rsrv   *httptest.Server
}

// startFleet brings the fleet up and returns once the router reports
// every member healthy. The taps are pass-through unless enabled.
func startFleet(dir string, rec *recorder, enabled *atomic.Bool) (*fleetEnv, error) {
	env := &fleetEnv{dir: dir}
	var members []fleet.Member
	for i := 1; i <= fleetMembers; i++ {
		name := fmt.Sprintf("m%d", i)
		mt := newTap(rec, enabled, "service.handler", "service.replica_push", 8)
		m, err := service.New(service.Config{
			DataDir:       filepath.Join(dir, name),
			AcquireWait:   2 * time.Second,
			ReplicaClient: &http.Client{Transport: mt},
		})
		if err != nil {
			env.close()
			return nil, err
		}
		srv := httptest.NewServer(mt.wrap(service.Handler(m)))
		env.mgrs = append(env.mgrs, m)
		env.srvs = append(env.srvs, srv)
		members = append(members, fleet.Member{Name: name, URL: srv.URL})
	}
	rt := newTap(rec, enabled, "fleet.handler", "fleet.member_call", 32)
	r, err := fleet.New(fleet.Config{Members: members, Replicas: fleetReplicas, Client: &http.Client{Transport: rt}})
	if err != nil {
		env.close()
		return nil, err
	}
	env.router = r
	env.rsrv = httptest.NewServer(rt.wrap(r.Handler()))
	if err := env.awaitHealthy(10 * time.Second); err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

// awaitHealthy polls the router's member table until every member is
// healthy: set-up waits on readiness, never on a fixed sleep.
func (env *fleetEnv) awaitHealthy(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		resp, err := http.Get(env.rsrv.URL + "/v1/admin/members")
		if err == nil {
			var ms []fleet.MemberStatus
			err = json.NewDecoder(resp.Body).Decode(&ms)
			resp.Body.Close()
			healthy := 0
			for _, m := range ms {
				if m.Healthy && !m.Departed {
					healthy++
				}
			}
			if err == nil && healthy == fleetMembers {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet not healthy after %v (last error: %v)", limit, err)
		}
		<-tick.C
	}
}

func (env *fleetEnv) close() {
	if env.rsrv != nil {
		env.rsrv.Close()
	}
	if env.router != nil {
		env.router.Close()
	}
	for _, s := range env.srvs {
		s.Close()
	}
	for _, m := range env.mgrs {
		m.Abort()
	}
}

// journalBytes is the size of a session's journal on its owner.
func (env *fleetEnv) journalBytes(id string) (int64, error) {
	paths, err := filepath.Glob(filepath.Join(env.dir, "*", id+".journal"))
	if err != nil {
		return 0, err
	}
	if len(paths) != 1 {
		return 0, fmt.Errorf("session %s: %d owner journals", id, len(paths))
	}
	fi, err := os.Stat(paths[0])
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// fleetClient is one architect: it holds one keep-alive connection to
// the router and answers each round one judgment per request.
type fleetClient struct {
	name    string
	base    string
	hc      *http.Client
	gt      *oracle.GroundTruth
	rec     *recorder
	enabled *atomic.Bool
	env     *fleetEnv
	n       int
	// retries counts 429/502/503 answers and transport errors retried.
	retries int
}

func newFleetClient(name string, env *fleetEnv, rec *recorder, enabled *atomic.Bool) (*fleetClient, error) {
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		return nil, err
	}
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost = 1
	tr.MaxIdleConnsPerHost = 1
	return &fleetClient{
		name: name, base: env.rsrv.URL, hc: &http.Client{Transport: tr},
		gt: oracle.NewGroundTruth(target, 1e-9), rec: rec, enabled: enabled, env: env,
	}, nil
}

func (c *fleetClient) close() { c.hc.CloseIdleConnections() }

// maxRetries bounds retries of one request; a request that exhausts
// them fails its session.
const maxRetries = 50

// do sends one request with a fresh X-Request-Id, retrying refusals
// (429/502/503) and transport errors, and returns the final status and
// body.
func (c *fleetClient) do(method, path string, body []byte) (int, []byte, error) {
	var lastErr error
	for try := 0; try <= maxRetries; try++ {
		if try > 0 {
			c.retries++
			time.Sleep(20 * time.Millisecond)
		}
		c.n++
		reqID := fmt.Sprintf("%s-%d", c.name, c.n)
		req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Request-Id", reqID)
		var sp *openSpan
		if c.enabled.Load() {
			name, _ := route(req)
			sp = c.rec.begin("client.request", 0, reqID, name)
			req.Header.Set(parentHeader, fmt.Sprint(sp.id()))
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			sp.end()
			lastErr = err
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		sp.end()
		if err != nil {
			lastErr = err
			continue
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable:
			lastErr = fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(raw)))
			continue
		}
		return resp.StatusCode, raw, nil
	}
	return 0, nil, fmt.Errorf("%s %s: retries exhausted: %w", method, path, lastErr)
}

// fleetSession is one completed fleet-panel session.
type fleetSession struct {
	id         string
	seed       int64
	answers    int
	transcript []byte
	oracle     []time.Duration
	// Traced phase only: the session's solver counters and journal size.
	effort       *solver.StatsSnapshot
	journalBytes int64
}

type queriesDoc struct {
	State   string `json:"state"`
	Queries []struct {
		Seq int       `json:"seq"`
		A   []float64 `json:"a"`
		B   []float64 `json:"b"`
	} `json:"queries"`
	Error string `json:"error"`
}

func prefWord(p oracle.Preference) string {
	switch p {
	case oracle.PrefersFirst:
		return "first"
	case oracle.PrefersSecond:
		return "second"
	}
	return "tie"
}

// session creates one session through the router, answers it to the
// end, exports its transcript and deletes it, as an architect saving the
// result would. Each judgment is its own POST; a round's last judgment
// starts the answer-wait clock, which stops when the next round (or
// done) arrives.
func (c *fleetClient) session(seed int64, tm *sessionTimes) (fleetSession, error) {
	spec, err := json.Marshal(fleetSpec(seed))
	if err != nil {
		return fleetSession{}, err
	}
	code, raw, err := c.do(http.MethodPost, "/v1/sessions", spec)
	if err != nil {
		return fleetSession{}, err
	}
	if code != http.StatusCreated {
		return fleetSession{}, fmt.Errorf("create seed %d: %d %s", seed, code, raw)
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		return fleetSession{}, fmt.Errorf("create seed %d: %w", seed, err)
	}
	out := fleetSession{id: created.ID, seed: seed}
	var lastSent time.Time
	for {
		code, raw, err := c.do(http.MethodGet, "/v1/sessions/"+out.id+"/queries?wait=30s", nil)
		now := time.Now()
		if err != nil {
			return out, err
		}
		if code == http.StatusRequestTimeout {
			continue
		}
		if code != http.StatusOK {
			return out, fmt.Errorf("queries %s: %d %s", out.id, code, raw)
		}
		var doc queriesDoc
		if err := json.Unmarshal(raw, &doc); err != nil {
			return out, fmt.Errorf("queries %s: %w", out.id, err)
		}
		switch doc.State {
		case string(service.StateDone):
			if !lastSent.IsZero() {
				tm.answerWait = append(tm.answerWait, now.Sub(lastSent))
			}
			return out, c.finish(&out)
		case string(service.StateFailed):
			return out, fmt.Errorf("session %s failed: %s", out.id, doc.Error)
		case string(service.StateAwaiting):
		default:
			continue
		}
		if len(doc.Queries) == 0 {
			continue
		}
		if !lastSent.IsZero() {
			tm.answerWait = append(tm.answerWait, now.Sub(lastSent))
			lastSent = time.Time{}
		}
		for i, q := range doc.Queries {
			o0 := time.Now()
			pref := c.gt.Compare(scenario.Scenario(q.A), scenario.Scenario(q.B))
			out.oracle = append(out.oracle, time.Since(o0))
			body, err := json.Marshal(map[string]any{"judgments": []map[string]any{{"seq": q.Seq, "pref": prefWord(pref)}}})
			if err != nil {
				return out, err
			}
			t0 := time.Now()
			last := i == len(doc.Queries)-1
			if last {
				lastSent = t0
			}
			code, raw, err := c.do(http.MethodPost, "/v1/sessions/"+out.id+"/judgments", body)
			if err != nil {
				return out, err
			}
			if code != http.StatusAccepted {
				return out, fmt.Errorf("judgment %s seq %d: %d %s", out.id, q.Seq, code, raw)
			}
			if !last {
				tm.ack = append(tm.ack, time.Since(t0))
			}
			out.answers++
		}
	}
}

// finish exports a done session's transcript, reads its counters when
// tracing, and deletes it.
func (c *fleetClient) finish(s *fleetSession) error {
	code, raw, err := c.do(http.MethodGet, "/v1/sessions/"+s.id+"/transcript", nil)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("transcript %s: %d %s", s.id, code, raw)
	}
	s.transcript = raw
	if c.enabled.Load() {
		var st service.SessionStatus
		code, raw, err := c.do(http.MethodGet, "/v1/sessions/"+s.id, nil)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("status %s: %d %s", s.id, code, raw)
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("status %s: %w", s.id, err)
		}
		s.effort = st.SolverEffort
		if s.journalBytes, err = c.env.journalBytes(s.id); err != nil {
			return err
		}
	}
	code, raw, err = c.do(http.MethodDelete, "/v1/sessions/"+s.id, nil)
	if err != nil {
		return err
	}
	if code != http.StatusNoContent {
		return fmt.Errorf("delete %s: %d %s", s.id, code, raw)
	}
	return nil
}

// fleetRef is the single-process run of a fleet spec: the transcript
// every fleet session with this seed must reproduce byte for byte.
type fleetRef struct {
	transcript []byte
	queries    int
	converged  bool
	agreement  float64
	edges      int
	iterations int
}

func batchReference(seed int64) (fleetRef, error) {
	sk := sketch.SWAN()
	target, err := sketch.DefaultSWANTarget.Candidate(sk)
	if err != nil {
		return fleetRef{}, err
	}
	res, err := service.BatchRun(fleetSpec(seed), oracle.NewGroundTruth(target, 1e-9))
	if err != nil {
		return fleetRef{}, err
	}
	var buf bytes.Buffer
	t := core.Export(res)
	if _, err := t.WriteTo(&buf); err != nil {
		return fleetRef{}, err
	}
	agr, err := agreement(res, seed)
	if err != nil {
		return fleetRef{}, err
	}
	return fleetRef{transcript: buf.Bytes(), queries: res.Queries, converged: res.Converged, agreement: agr, edges: len(t.Preferences), iterations: res.Iterations}, nil
}

// batchReferences runs the references of the distinct seeds.
func batchReferences(seeds []int64) (map[int64]fleetRef, error) {
	var mu sync.Mutex
	out := map[int64]fleetRef{}
	err := forEachSeed(seeds, func(s int64) error {
		ref, err := batchReference(s)
		if err != nil {
			return fmt.Errorf("batch reference seed %d: %w", s, err)
		}
		mu.Lock()
		out[s] = ref
		mu.Unlock()
		return nil
	})
	return out, err
}

// forEachSeed runs fn for every seed, two at a time.
func forEachSeed(seeds []int64, fn func(int64) error) error {
	var (
		mu   sync.Mutex
		errs []error
		wg   sync.WaitGroup
		sem  = make(chan struct{}, 2)
	)
	for _, s := range seeds {
		wg.Add(1)
		sem <- struct{}{}
		go func(s int64) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(s); err != nil {
				mu.Lock()
				errs = append(errs, err)
				mu.Unlock()
			}
		}(s)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// sumEffort adds a session's solver counters into acc.
func sumEffort(acc *solver.StatsSnapshot, s *solver.StatsSnapshot) {
	if s == nil {
		return
	}
	acc.Samples += s.Samples
	acc.Repairs += s.Repairs
	acc.Boxes += s.Boxes
	acc.HintHits += s.HintHits
	acc.SpecCompiles += s.SpecCompiles
	acc.SpecCacheHits += s.SpecCacheHits
	acc.BatchedEvals += s.BatchedEvals
	acc.ScalarEvals += s.ScalarEvals
}
