package router_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/router"
	"repro/internal/server"
)

func twoStubs(t *testing.T) (*stubBackend, *stubBackend, router.Options) {
	a := newStub(t, nil)
	b := newStub(t, nil)
	opts := router.Options{Backends: []router.Backend{
		{ID: "a", URL: a.ts.URL},
		{ID: "b", URL: b.ts.URL},
	}}
	return a, b, opts
}

// sourceFor returns a distinct tiny program source per index; the router
// hashes it exactly like the backend compile cache would.
func sourceFor(i int) string {
	return fmt.Sprintf("def main():\n    print(%d)\n", i)
}

// TestAffinityRoutingIsSticky pins the tentpole property: every request
// for the same program lands on the same backend, and that backend is
// the ring owner of the program's compile-cache key.
func TestAffinityRoutingIsSticky(t *testing.T) {
	_, _, opts := twoStubs(t)
	rt, ts := newRouter(t, opts, 2)

	hitBoth := map[string]bool{}
	for i := 0; i < 8; i++ {
		src := sourceFor(i)
		want := rt.Ring().Owner(core.CacheKey("prog.ttr", src, server.MaxOptLevel))
		for rep := 0; rep < 4; rep++ {
			resp, body := postRun(t, ts.URL, server.RunRequest{Source: src}, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Tetra-Backend"); got != want {
				t.Fatalf("program %d rep %d routed to %q, ring owner is %q", i, rep, got, want)
			}
		}
		hitBoth[want] = true
	}
	if len(hitBoth) != 2 {
		t.Errorf("8 programs all routed to one backend %v; want both in play", hitBoth)
	}
}

// TestAffinityHonorsOptLevel pins that the routing key carries the opt
// level, exactly like the compile-cache key: the same source at -O0 and
// -O2 is two cache entries, so it may be two ring keys.
func TestAffinityHonorsOptLevel(t *testing.T) {
	_, _, opts := twoStubs(t)
	rt, ts := newRouter(t, opts, 2)
	src := sourceFor(0)
	for _, lvl := range []int{0, 2} {
		lvl := lvl
		want := rt.Ring().Owner(core.CacheKey("prog.ttr", src, lvl))
		resp, _ := postRun(t, ts.URL, server.RunRequest{Source: src, Backend: server.BackendVM, Opt: &lvl}, nil)
		if got := resp.Header.Get("X-Tetra-Backend"); got != want {
			t.Errorf("opt %d routed to %q, ring owner of its cache key is %q", lvl, got, want)
		}
	}
}

// TestSpilloverOnFullBackend: when the owner's in-flight bound is full,
// the request spills to the next ring node instead of queueing or
// failing.
func TestSpilloverOnFullBackend(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	slow := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok":true}`)
	})
	fast := newStub(t, nil)
	opts := router.Options{
		Backends: []router.Backend{
			{ID: "slow", URL: slow.ts.URL},
			{ID: "fast", URL: fast.ts.URL},
		},
		MaxInFlight: 1,
	}
	rt, ts := newRouter(t, opts, 2)

	// Find a program owned by the slow backend.
	src := ""
	for i := 0; ; i++ {
		s := sourceFor(i)
		if rt.Ring().Owner(core.CacheKey("prog.ttr", s, server.MaxOptLevel)) == "slow" {
			src = s
			break
		}
	}

	errCh := make(chan error, 1)
	go func() {
		resp, _ := postRun(t, ts.URL, server.RunRequest{Source: src}, nil)
		if resp.Header.Get("X-Tetra-Backend") != "slow" {
			errCh <- fmt.Errorf("first request not on owner: %s", resp.Header.Get("X-Tetra-Backend"))
			return
		}
		errCh <- nil
	}()
	<-started // owner now holds its single in-flight slot

	resp, body := postRun(t, ts.URL, server.RunRequest{Source: src}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("spilled request status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Tetra-Backend"); got != "fast" {
		t.Errorf("overflow request served by %q, want spillover to \"fast\"", got)
	}
	close(release)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if m := rt.Metrics(); m.Spillovers < 1 {
		t.Errorf("spillovers = %d, want >= 1", m.Spillovers)
	}
}

// TestRetryOnConnectionFailure: a backend that dies without announcing
// costs a transparent retry on the next ring node, not a client error,
// and is ejected from the ring immediately — before any probe notices.
func TestRetryOnConnectionFailure(t *testing.T) {
	dead := newStub(t, nil)
	live := newStub(t, nil)
	opts := router.Options{
		Backends: []router.Backend{
			{ID: "dead", URL: dead.ts.URL},
			{ID: "live", URL: live.ts.URL},
		},
		// Probes must not rescue this test: the request itself has to
		// detect the failure.
		ProbeInterval: time.Hour,
	}
	rt, ts := newRouter(t, opts, 2)
	dead.ts.Close()

	src := ""
	for i := 0; ; i++ {
		s := sourceFor(i)
		if rt.Ring().Owner(core.CacheKey("prog.ttr", s, server.MaxOptLevel)) == "dead" {
			src = s
			break
		}
	}
	resp, body := postRun(t, ts.URL, server.RunRequest{Source: src}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s (connection failure must be retried, not surfaced)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Tetra-Backend"); got != "live" {
		t.Errorf("served by %q, want retry onto \"live\"", got)
	}
	m := rt.Metrics()
	if m.Retries < 1 {
		t.Errorf("retries = %d, want >= 1", m.Retries)
	}
	if rt.Ring().Len() != 1 {
		t.Errorf("dead backend still in ring: %v", rt.Ring().Members())
	}
	if be := m.Backends["dead"]; be.Errors < 1 || be.Ready {
		t.Errorf("dead backend metrics = %+v, want errors>=1 and not ready", be)
	}
}

// TestNoBackend503: with the whole fleet gone the router answers a
// well-formed 503 with Retry-After — never a connection error, never a
// hang.
func TestNoBackend503(t *testing.T) {
	a, b, opts := twoStubs(t)
	opts.ProbeInterval = time.Hour
	opts.MaxRetries = 2
	rt, ts := newRouter(t, opts, 2)
	a.ts.Close()
	b.ts.Close()

	resp, body := postRun(t, ts.URL, server.RunRequest{Source: sourceFor(0)}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	assertErrorBody(t, body, http.StatusServiceUnavailable)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if m := rt.Metrics(); m.NoBackend < 1 {
		t.Errorf("no_backend = %d, want >= 1", m.NoBackend)
	}
}

// TestHealthDrivenMembership: readiness flips drive the ring — a backend
// announcing 503 leaves, and rejoins when it reports ready again.
func TestHealthDrivenMembership(t *testing.T) {
	a, _, opts := twoStubs(t)
	rt, ts := newRouter(t, opts, 2)

	a.ready.Store(false)
	waitForRing(t, rt, 1)
	// All traffic must now go to b, whatever the program.
	for i := 0; i < 6; i++ {
		resp, _ := postRun(t, ts.URL, server.RunRequest{Source: sourceFor(i)}, nil)
		if got := resp.Header.Get("X-Tetra-Backend"); got != "b" {
			t.Errorf("program %d routed to %q while a was unready", i, got)
		}
	}

	a.ready.Store(true)
	waitForRing(t, rt, 2)
	if m := rt.Metrics(); m.Membership < 2 {
		t.Errorf("membership changes = %d, want >= 2 (leave + rejoin)", m.Membership)
	}
}

// TestMetricsSurviveMembershipChurn pins the operability contract: a
// backend leaving the ring keeps its request counts and latency history,
// and keeps accumulating when it returns. Dashboards must not zero
// mid-incident.
func TestMetricsSurviveMembershipChurn(t *testing.T) {
	a, _, opts := twoStubs(t)
	rt, ts := newRouter(t, opts, 2)

	for i := 0; i < 20; i++ {
		postRun(t, ts.URL, server.RunRequest{Source: sourceFor(i)}, nil)
	}
	before := rt.Metrics()
	ba := before.Backends["a"]
	bb := before.Backends["b"]
	if ba.Requests == 0 || bb.Requests == 0 {
		t.Fatalf("warm-up did not reach both backends: a=%d b=%d", ba.Requests, bb.Requests)
	}

	// Churn: a leaves, traffic continues, a rejoins.
	a.ready.Store(false)
	waitForRing(t, rt, 1)
	for i := 0; i < 10; i++ {
		postRun(t, ts.URL, server.RunRequest{Source: sourceFor(i)}, nil)
	}
	mid := rt.Metrics()
	if got := mid.Backends["a"]; got.Requests != ba.Requests || got.Latency.Count != ba.Latency.Count {
		t.Errorf("a's counters changed while absent: %+v -> %+v", ba, got)
	}
	if got := mid.Backends["a"]; got.Ready {
		t.Error("a still reported ready while out of the ring")
	}

	a.ready.Store(true)
	waitForRing(t, rt, 2)
	for i := 0; i < 20; i++ {
		postRun(t, ts.URL, server.RunRequest{Source: sourceFor(i)}, nil)
	}
	after := rt.Metrics()
	if got := after.Backends["a"]; got.Requests <= ba.Requests {
		t.Errorf("a's requests did not resume accumulating: %d -> %d", ba.Requests, got.Requests)
	}
	if after.Membership < 2 {
		t.Errorf("membership changes = %d, want >= 2", after.Membership)
	}

	// The HTTP surface serves the same snapshot.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	var snap router.MetricsSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("GET /metrics not JSON: %v\n%s", err, body)
	}
	if len(snap.Backends) != 2 || snap.Policy != router.PolicyAffinity {
		t.Errorf("metrics snapshot missing backends or policy: %s", body)
	}
}

// TestRequestIDPropagation pins the correlation contract end to end at
// the transport level: a client ID is forwarded to the backend verbatim
// and echoed in the reply; an absent ID is minted at the edge, and the
// backend sees exactly the minted value.
func TestRequestIDPropagation(t *testing.T) {
	a, b, opts := twoStubs(t)
	_, ts := newRouter(t, opts, 2)

	// Client-supplied ID.
	resp, _ := postRun(t, ts.URL, server.RunRequest{Source: sourceFor(0)},
		map[string]string{"X-Request-ID": "client-abc-123"})
	if got := resp.Header.Get("X-Request-ID"); got != "client-abc-123" {
		t.Errorf("reply X-Request-ID = %q, want the client's", got)
	}
	backendSaw := a.lastHeader()
	if backendSaw == nil {
		backendSaw = b.lastHeader()
	}
	if got := backendSaw.Get("X-Request-ID"); got != "client-abc-123" {
		t.Errorf("backend saw X-Request-ID %q, want the client's", got)
	}

	// Router-minted ID.
	resp2, _ := postRun(t, ts.URL, server.RunRequest{Source: sourceFor(1)}, nil)
	minted := resp2.Header.Get("X-Request-ID")
	if minted == "" {
		t.Fatal("router did not mint an X-Request-ID")
	}
	var saw string
	for _, sb := range []*stubBackend{a, b} {
		if h := sb.lastHeader(); h != nil && h.Get("X-Request-ID") == minted {
			saw = minted
		}
	}
	if saw != minted {
		t.Errorf("no backend saw the minted ID %q", minted)
	}
}

// TestBackendHeaderOnEveryReply: every proxied reply names its backend,
// including backend-rejected requests — rejections are data, and an
// operator debugging a 4xx needs to know which node said it.
func TestBackendHeaderOnEveryReply(t *testing.T) {
	reject := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		io.WriteString(w, `{"error":"quarantined","code":422}`)
	})
	opts := router.Options{Backends: []router.Backend{{ID: "q", URL: reject.ts.URL}}}
	_, ts := newRouter(t, opts, 1)
	resp, body := postRun(t, ts.URL, server.RunRequest{Source: sourceFor(0)}, nil)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want backend's 422 relayed", resp.StatusCode)
	}
	assertErrorBody(t, body, http.StatusUnprocessableEntity)
	if got := resp.Header.Get("X-Tetra-Backend"); got != "q" {
		t.Errorf("X-Tetra-Backend = %q, want \"q\"", got)
	}
}

// TestSessionStickiness: per-session endpoints route to the replica that
// created the session, never by hash; deleted and unknown sessions are
// well-formed 404s.
func TestSessionStickiness(t *testing.T) {
	mk := func(id string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			if r.URL.Path == "/session" {
				fmt.Fprintf(w, `{"id":%q}`, id)
				return
			}
			fmt.Fprintf(w, `{"served_by":%q}`, id)
		}
	}
	a := newStub(t, mk("sess-from-a"))
	b := newStub(t, mk("sess-from-b"))
	opts := router.Options{Backends: []router.Backend{
		{ID: "a", URL: a.ts.URL},
		{ID: "b", URL: b.ts.URL},
	}}
	_, ts := newRouter(t, opts, 2)

	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Post(ts.URL+"/session", "application/json",
			strings.NewReader(`{"source":"def main():\n    print(1)\n"}`))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		return resp, body
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session create: %d %s", resp.StatusCode, body)
	}
	creator := resp.Header.Get("X-Tetra-Backend")
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &created); err != nil || created.ID == "" {
		t.Fatalf("bad session create body: %s", body)
	}

	// Every subsequent per-session request must hit the creator, many
	// times in a row (hash routing would scatter).
	for i := 0; i < 6; i++ {
		resp, err := http.Get(ts.URL + "/session/" + created.ID + "/state")
		if err != nil {
			t.Fatal(err)
		}
		readAll(resp)
		if got := resp.Header.Get("X-Tetra-Backend"); got != creator {
			t.Fatalf("sticky request %d went to %q, session lives on %q", i, got, creator)
		}
	}

	// An oversize body is refused at the edge with the limit, on the
	// sticky path exactly as on the hashed one (and as tetrad would).
	huge := strings.Repeat("x", 4<<20+1)
	for _, path := range []string{"/session/" + created.ID + "/cmd", "/run"} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(string(body), "request body exceeds 4194304 bytes") {
			t.Errorf("oversize body on %s: %d %s, want 413 naming the limit", path, resp.StatusCode, body)
		}
		assertErrorBody(t, body, http.StatusRequestEntityTooLarge)
	}

	// DELETE releases the route; the next touch is a router-level 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/session/"+created.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		readAll(resp)
	}
	resp2, err := http.Get(ts.URL + "/session/" + created.ID + "/state")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := readAll(resp2)
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session gave %d, want 404", resp2.StatusCode)
	}
	assertErrorBody(t, body2, http.StatusNotFound)

	// Unknown session: same shape.
	resp3, err := http.Get(ts.URL + "/session/never-existed/state")
	if err != nil {
		t.Fatal(err)
	}
	body3, _ := readAll(resp3)
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session gave %d, want 404", resp3.StatusCode)
	}
	assertErrorBody(t, body3, http.StatusNotFound)
}

// TestRandomPolicyUsesWholeFleet: the control arm really does scatter.
func TestRandomPolicyUsesWholeFleet(t *testing.T) {
	a, b, opts := twoStubs(t)
	opts.Policy = router.PolicyRandom
	_, ts := newRouter(t, opts, 2)
	src := sourceFor(0) // one single program
	for i := 0; i < 32; i++ {
		postRun(t, ts.URL, server.RunRequest{Source: src}, nil)
	}
	if a.requestCount() == 0 || b.requestCount() == 0 {
		t.Errorf("random policy sent 32 requests of one program to a=%d b=%d; want both > 0",
			a.requestCount(), b.requestCount())
	}
}

// TestAffinityKeepsCachesWarmerThanRandom pins the claim the policy exists
// for: when the corpus is larger than one node's compile cache but smaller
// than the fleet's, affinity partitions it so each node's share fits and a
// repeat is a hit, while random routing mostly lands a repeat on a node
// that never compiled it.
func TestAffinityKeepsCachesWarmerThanRandom(t *testing.T) {
	const nodes, cacheEntries, corpus, passes = 4, 6, 12, 2
	hits := map[string]uint64{}
	for _, policy := range []string{router.PolicyAffinity, router.PolicyRandom} {
		var fleet []*clusterBackend
		var backends []router.Backend
		for i := 0; i < nodes; i++ {
			n := newClusterBackend(t, fmt.Sprintf("%s-n%d", policy, i), func(o *server.Options) {
				o.Isolation = server.IsolationOff
				o.CacheEntries = cacheEntries
			})
			fleet = append(fleet, n)
			backends = append(backends, router.Backend{ID: n.id, URL: n.ts.URL})
		}
		_, ts := newRouter(t, router.Options{Backends: backends, Policy: policy}, nodes)
		for pass := 0; pass < passes; pass++ {
			for i := 0; i < corpus; i++ {
				resp, body := postRun(t, ts.URL, server.RunRequest{Source: sourceFor(i), Backend: server.BackendVM}, nil)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: program %d gave %d: %s", policy, i, resp.StatusCode, body)
				}
			}
		}
		for _, n := range fleet {
			hits[policy] += n.srv.Cache().Stats().Hits
		}
	}
	if hits[router.PolicyAffinity] <= hits[router.PolicyRandom] {
		t.Errorf("compile-cache hits over %d passes of %d programs on %d nodes of %d entries: affinity %d, random %d; want affinity > random",
			passes, corpus, nodes, cacheEntries, hits[router.PolicyAffinity], hits[router.PolicyRandom])
	}
}

// TestRouterHealthAndDrain: the router's own readiness follows ring
// population and drain state, and a draining router rejects with a
// well-formed 503 + Retry-After.
func TestRouterHealthAndDrain(t *testing.T) {
	baseline := countGoroutinesSettled()
	a := newStub(t, nil)
	rt, err := router.New(router.Options{
		Backends:      []router.Backend{{ID: "a", URL: a.ts.URL}},
		ProbeInterval: 20 * time.Millisecond,
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt)
	defer ts.Close()
	waitForRing(t, rt, 1)

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := readAll(resp)
		return resp.StatusCode, body
	}
	if code, _ := get("/healthz/live"); code != http.StatusOK {
		t.Errorf("live = %d", code)
	}
	if code, _ := get("/healthz/ready"); code != http.StatusOK {
		t.Errorf("ready = %d", code)
	}

	// Empty ring → not ready (but alive).
	a.ready.Store(false)
	waitForRing(t, rt, 0)
	if code, _ := get("/healthz/ready"); code != http.StatusServiceUnavailable {
		t.Errorf("ready with empty ring = %d, want 503", code)
	}
	if code, _ := get("/healthz/live"); code != http.StatusOK {
		t.Errorf("live with empty ring = %d, want 200", code)
	}

	if err := rt.Drain(nil); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code, _ := get("/healthz/ready"); code != http.StatusServiceUnavailable {
		t.Errorf("ready while draining = %d, want 503", code)
	}
	resp, body := postRun(t, ts.URL, server.RunRequest{Source: sourceFor(0)}, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining router gave %d, want 503", resp.StatusCode)
	}
	assertErrorBody(t, body, http.StatusServiceUnavailable)
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}

	ts.Close()
	a.ts.Close()
	if leaked := waitForGoroutines(baseline, 5*time.Second); leaked > 0 {
		t.Errorf("goroutine leak after router drain: %d above baseline %d", leaked, baseline)
	}
}

// TestNewRejectsBadConfig: config errors fail fast at construction.
func TestNewRejectsBadConfig(t *testing.T) {
	cases := []router.Options{
		{},
		{Backends: []router.Backend{{URL: "not a url"}}},
		{Backends: []router.Backend{{URL: "http://x:1"}, {URL: "http://x:1"}}},
		{Backends: []router.Backend{{URL: "http://x:1"}}, Policy: "round-robin"},
	}
	for i, opts := range cases {
		if _, err := router.New(opts); err == nil {
			t.Errorf("case %d: New accepted bad config %+v", i, opts)
		}
	}
}

// TestUnroutableBodyStillProxies: the router is a transport, not a
// validator — a body the router cannot parse still reaches a backend,
// which owns producing the canonical 400.
func TestUnroutableBodyStillProxies(t *testing.T) {
	code400 := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		io.WriteString(w, `{"error":"bad json","code":400}`)
	})
	opts := router.Options{Backends: []router.Backend{{ID: "x", URL: code400.ts.URL}}}
	_, ts := newRouter(t, opts, 1)
	resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := readAll(resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want the backend's 400 relayed", resp.StatusCode)
	}
	assertErrorBody(t, body, http.StatusBadRequest)
	if got := resp.Header.Get("X-Tetra-Backend"); got != "x" {
		t.Errorf("X-Tetra-Backend = %q on relayed 400", got)
	}
}
