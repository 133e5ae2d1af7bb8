package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"mlpart"
)

// gridGraph returns a rows x cols 4-connected grid as a wire graph.
func gridGraph(rows, cols int) mlpart.WireGraph {
	b := mlpart.NewGraphBuilder(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return *mlpart.NewWireGraph(g)
}

func postJSON(t *testing.T, client *http.Client, url string, req any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func TestPartitionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(16, 16)
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, K: 4, Options: &mlpart.Options{Seed: 7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var pr mlpart.PartitionResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatalf("decode: %v\n%s", err, data)
	}
	if pr.Kind != mlpart.WireKindResult || pr.K != 4 || pr.Vertices != 256 {
		t.Fatalf("unexpected response: %+v", pr)
	}
	if len(pr.Where) != 256 || len(pr.PartWeights) != 4 {
		t.Fatalf("where/part_weights lengths: %d, %d", len(pr.Where), len(pr.PartWeights))
	}
	// The daemon must agree exactly with the library for the same input.
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	want, err := mlpart.Partition(g, 4, &mlpart.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if pr.EdgeCut != want.EdgeCut {
		t.Errorf("edge cut %d via HTTP, %d via library", pr.EdgeCut, want.EdgeCut)
	}
	if got := mlpart.EdgeCut(g, pr.Where); got != pr.EdgeCut {
		t.Errorf("reported cut %d but where evaluates to %d", pr.EdgeCut, got)
	}
}

func TestPartitionMethodsAndFractions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(12, 12)

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, K: 8, Method: mlpart.MethodKWay,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("kway status %d: %s", resp.StatusCode, data)
	}

	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: wg, Fractions: []float64{2, 1, 1},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("weighted status %d: %s", resp.StatusCode, data)
	}
	var pr mlpart.PartitionResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.K != 3 {
		t.Errorf("weighted K = %d, want 3", pr.K)
	}
}

func TestOrderEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(10, 10)
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/order", mlpart.OrderRequest{
		Graph: wg, Analyze: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var or mlpart.OrderResponse
	if err := json.Unmarshal(data, &or); err != nil {
		t.Fatal(err)
	}
	if or.Kind != mlpart.WireKindOrder {
		t.Fatalf("kind = %q", or.Kind)
	}
	n := 100
	seen := make([]bool, n)
	if len(or.Perm) != n || len(or.Iperm) != n {
		t.Fatalf("perm/iperm lengths %d/%d, want %d", len(or.Perm), len(or.Iperm), n)
	}
	for i, v := range or.Perm {
		if v < 0 || v >= n || seen[v] {
			t.Fatalf("perm is not a permutation at %d: %d", i, v)
		}
		seen[v] = true
		if or.Iperm[v] != i {
			t.Fatalf("iperm[%d] = %d, want %d", v, or.Iperm[v], i)
		}
	}
	if or.Analysis == nil || or.Analysis.FactorNonzeros <= 0 {
		t.Fatalf("analysis missing or empty: %+v", or.Analysis)
	}
}

func TestRepartitionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(10, 10)
	// A balanced incumbent whose vertex weights then shift: left column
	// of parts gets 4x heavier, so restoring balance forces migration.
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	initial, err := mlpart.Partition(g, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for v, p := range initial.Where {
		if p == 0 {
			wg.Vwgt[v] = 4
		}
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/repartition", mlpart.RepartitionRequest{
		Graph: wg, K: 2, Where: initial.Where,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var rr mlpart.RepartitionResponse
	if err := json.Unmarshal(data, &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Kind != mlpart.WireKindRepartition || rr.K != 2 {
		t.Fatalf("unexpected response: kind=%q k=%d", rr.Kind, rr.K)
	}
	if rr.MigratedWeight <= 0 {
		t.Errorf("expected migration away from the all-zero incumbent, got %d", rr.MigratedWeight)
	}
	if len(rr.Where) != 100 {
		t.Errorf("len(where) = %d", len(rr.Where))
	}
}

func TestBadRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		url  string
		body string
	}{
		{"malformed JSON", "/v1/partition", `{"graph":`},
		{"invalid graph", "/v1/partition", `{"graph":{"xadj":[0,1],"adjncy":[0]},"k":2}`},
		{"bad method name", "/v1/partition", `{"graph":{"xadj":[0],"adjncy":[]},"k":2,"method":"sorcery"}`},
		{"k zero", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]}}`},
		{"fractions with kway", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]},"fractions":[1,1],"method":"kway"}`},
		{"bad repartition ubfactor", "/v1/repartition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"where":[0],"options":{"ubfactor":0.5}}`},
		// Malformed Options must be classified at decode time — a 400, not
		// a 500 from deep inside the engine (Options.Validate up front).
		{"unknown matching scheme", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"options":{"matching":"XYZ"}}`},
		{"unknown refinement policy", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"options":{"refinement":"FMPP"}}`},
		{"ubfactor below one", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"options":{"ubfactor":0.5}}`},
		{"negative ncuts", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"options":{"ncuts":-1}}`},
		{"negative coarsen_to", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"options":{"coarsen_to":-5}}`},
		{"negative refine workers", "/v1/partition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"options":{"refine_workers":-2}}`},
		{"bad order options", "/v1/order", `{"graph":{"xadj":[0,0],"adjncy":[]},"options":{"init_part":"QQQ"}}`},
		{"negative migration weight", "/v1/repartition", `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"where":[0],"options":{"migration_weight":-1}}`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+tc.url, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, data)
		}
		var er mlpart.ErrorResponse
		if err := json.Unmarshal(data, &er); err != nil || er.Kind != mlpart.WireKindError || er.Error == "" {
			t.Errorf("%s: not an error object: %s", tc.name, data)
		}
		if er.SchemaVersion != mlpart.SchemaVersion {
			t.Errorf("%s: schema_version = %d, want %d", tc.name, er.SchemaVersion, mlpart.SchemaVersion)
		}
	}
	if got := s.met.badReqs.Load(); got != int64(len(cases)) {
		t.Errorf("bad_requests = %d, want %d", got, len(cases))
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/partition")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET on compute endpoint: status %d, want 405", resp.StatusCode)
	}
}

// TestResponsesCarrySchemaVersion pins that every /v1 result object — all
// three endpoints — reports the wire schema version.
func TestResponsesCarrySchemaVersion(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(8, 8)

	check := func(name string, data []byte) {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v, ok := m["schema_version"]; !ok || v != float64(mlpart.SchemaVersion) {
			t.Errorf("%s: schema_version = %v, want %d (%s)", name, v, mlpart.SchemaVersion, data)
		}
	}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{Graph: wg, K: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partition: status %d: %s", resp.StatusCode, data)
	}
	check("partition", data)

	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/order", mlpart.OrderRequest{Graph: wg})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("order: status %d: %s", resp.StatusCode, data)
	}
	check("order", data)

	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/repartition", mlpart.RepartitionRequest{
		Graph: wg, K: 2, Where: make([]int, 64),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repartition: status %d: %s", resp.StatusCode, data)
	}
	check("repartition", data)
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(data)) != "ok" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, data)
	}
}

func TestCacheHitByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := mlpart.PartitionRequest{Graph: gridGraph(14, 14), K: 4, Options: &mlpart.Options{Seed: 3}}

	resp1, cold := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", resp1.StatusCode, cold)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", got)
	}

	resp2, warm := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d: %s", resp2.StatusCode, warm)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(cold, warm) {
		t.Fatalf("cache hit differs from cold result:\ncold: %s\nwarm: %s", cold, warm)
	}

	// A fresh server (empty cache) must produce the same bytes again:
	// cached replies are indistinguishable from recomputation.
	_, ts2 := newTestServer(t, Config{})
	resp3, fresh := postJSON(t, ts2.Client(), ts2.URL+"/v1/partition", req)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("fresh status %d", resp3.StatusCode)
	}
	if !bytes.Equal(cold, fresh) {
		t.Fatalf("fresh server result differs from original cold result")
	}
}

func TestCacheCanonicalization(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	wg := gridGraph(12, 12)
	// Explicit defaults and omitted options must share one cache entry;
	// the scheduling-only Parallel knob must not split it either.
	reqs := []mlpart.PartitionRequest{
		{Graph: wg, K: 2},
		{Graph: wg, K: 2, Options: &mlpart.Options{Matching: "HEM", Ubfactor: 1.05, CoarsenTo: 100}},
		{Graph: wg, K: 2, Options: &mlpart.Options{Parallel: true}},
	}
	for i, req := range reqs {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("req %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	if hits := s.met.cacheHits.Load(); hits != 2 {
		t.Errorf("cache hits = %d, want 2 (canonicalization should unify all three requests)", hits)
	}
	if size := s.cache.len(); size != 1 {
		t.Errorf("cache size = %d, want 1", size)
	}
	// A different seed is a different result: must miss.
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition",
		mlpart.PartitionRequest{Graph: wg, K: 2, Options: &mlpart.Options{Seed: 9}})
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("different seed X-Cache = %q, want miss", got)
	}
	// Every spelling of a default the engine resolves the same way hits
	// the entry above: ubfactor 1 runs as 1.05, BKWAY refines as BKLGR,
	// ncuts of 1 or less runs once, and coarsen_workers and refine_workers
	// are scheduling that never changes a result.
	for _, o := range []*mlpart.Options{
		{InitPart: mlpart.InitGGGP, Refinement: mlpart.RefineBKLGR},
		{Refinement: mlpart.RefineBKWAY},
		{CoarsenTo: 100},
		{Ubfactor: 1},
		{Ubfactor: 1.05},
		{NCuts: 1},
		{CoarsenWorkers: 1},
		{CoarsenWorkers: 4},
		{Ordering: mlpart.OrderingNone},
		{RefineWorkers: 8},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{Graph: wg, K: 2, Options: o})
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("options %+v: X-Cache = %q, want hit (%s)", o, got, data)
		}
	}
	// Repartition keys on the rebalancer's own defaults the same way:
	// ubfactor 1 runs as 1.05 and migration_weight 0 as 1, so every
	// spelling below hits the entry of the omitted options; a seed misses.
	where := make([]int, len(wg.Xadj)-1)
	for v := range where {
		where[v] = v % 2
	}
	for i, tc := range []struct {
		o    *mlpart.RepartitionOptions
		want string
	}{
		{nil, "miss"},
		{&mlpart.RepartitionOptions{}, "hit"},
		{&mlpart.RepartitionOptions{Ubfactor: 1}, "hit"},
		{&mlpart.RepartitionOptions{Ubfactor: 1.05, MigrationWeight: 1}, "hit"},
		{&mlpart.RepartitionOptions{Seed: 3}, "miss"},
	} {
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/repartition",
			mlpart.RepartitionRequest{Graph: wg, K: 2, Where: where, Options: tc.o})
		if got := resp.Header.Get("X-Cache"); got != tc.want {
			t.Errorf("repartition %d options %+v: X-Cache = %q, want %s (%s)", i, tc.o, got, tc.want, data)
		}
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be present")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestQueueFullSheds429(t *testing.T) {
	// One worker, no queue: while the first request holds the worker
	// slot, any second request must be shed with 429 + Retry-After.
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: -1})
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.hookCompute = func(context.Context) {
		entered <- struct{}{}
		<-block
	}

	firstDone := make(chan error, 1)
	go func() {
		resp, data := postJSONNoFatal(ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
			Graph: gridGraph(8, 8), K: 2,
		})
		if resp == nil || resp.StatusCode != http.StatusOK {
			firstDone <- fmt.Errorf("first request failed: %v %s", resp, data)
			return
		}
		firstDone <- nil
	}()
	<-entered // the first request now owns the only worker slot

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: gridGraph(8, 8), K: 4,
	})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er mlpart.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Kind != mlpart.WireKindError {
		t.Errorf("429 body is not an error object: %s", data)
	}

	close(block)
	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	if got := s.met.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// postJSONNoFatal is postJSON for goroutines (no *testing.T calls).
func postJSONNoFatal(client *http.Client, url string, req any) (*http.Response, []byte) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp, data
}

func TestExpiredDeadlineNeverEntersPool(t *testing.T) {
	// A 1ns ceiling means every request's deadline has passed before the
	// worker acquisition: it must get the timeout status and the pool
	// must never start a computation.
	s, ts := newTestServer(t, Config{Workers: 2, Timeout: time.Nanosecond})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
		Graph: gridGraph(8, 8), K: 2,
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (%s)", resp.StatusCode, data)
	}
	var er mlpart.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Kind != mlpart.WireKindError {
		t.Fatalf("504 body is not an error object: %s", data)
	}
	if got := s.met.started.Load(); got != 0 {
		t.Errorf("started = %d, want 0 (request must not enter the pool)", got)
	}
	if got := s.met.timedOut.Load(); got != 1 {
		t.Errorf("timed_out = %d, want 1", got)
	}
}

func TestClientCancelStopsComputation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	entered := make(chan struct{}, 1)
	// The hook parks the worker until the server itself observes the
	// client's disconnect (the compute context fires), making the abort
	// deterministic: the engine is then guaranteed to see a canceled
	// context at its first level-boundary check.
	s.hookCompute = func(ctx context.Context) {
		entered <- struct{}{}
		<-ctx.Done()
	}

	body, _ := json.Marshal(mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/partition", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := ts.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	<-entered // request holds the worker slot
	cancel()  // client walks away
	if err := <-errc; err == nil {
		t.Fatal("expected the client side to fail after cancel")
	}

	// The engine sees the canceled context at its first level-boundary
	// check and aborts; the server records it as a cancellation, not a
	// completion.
	deadline := time.After(5 * time.Second)
	for s.met.canceled.Load() == 0 {
		select {
		case <-deadline:
			t.Fatalf("cancellation not observed: canceled=%d completed=%d",
				s.met.canceled.Load(), s.met.endpoints[epPartition].completed.Load())
		case <-time.After(time.Millisecond):
		}
	}
	if got := s.met.endpoints[epPartition].completed.Load(); got != 0 {
		t.Errorf("completed = %d, want 0 (computation must be aborted)", got)
	}
}

func TestTraceCapture(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 2}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Errorf("trace X-Cache = %q, want bypass", got)
	}
	var env struct {
		Result mlpart.PartitionResponse `json:"result"`
		Trace  []mlpart.TraceEvent      `json:"trace"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("decode envelope: %v\n%s", err, data)
	}
	if env.Result.Kind != mlpart.WireKindResult {
		t.Errorf("result kind = %q", env.Result.Kind)
	}
	if len(env.Trace) == 0 {
		t.Error("trace=1 returned no events")
	}
	kinds := map[string]bool{}
	for _, ev := range env.Trace {
		kinds[string(ev.Kind)] = true
	}
	for _, want := range []string{"level", "initial", "phase"} {
		if !kinds[want] {
			t.Errorf("trace missing %q events (got kinds %v)", want, kinds)
		}
	}

	// The traced run must not have polluted the cache.
	resp2, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if got := resp2.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("post-trace X-Cache = %q, want miss (trace must bypass the cache)", got)
	}
}

func TestVarz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 3, QueueSize: 5, CacheSize: 10})
	req := mlpart.PartitionRequest{Graph: gridGraph(10, 10), K: 2}
	postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	postJSON(t, ts.Client(), ts.URL+"/v1/partition", req) // cache hit

	resp, err := ts.Client().Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("varz status %d", resp.StatusCode)
	}
	var v varz
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("varz decode: %v\n%s", err, data)
	}
	if v.Workers != 3 || v.QueueCapacity != 5 {
		t.Errorf("workers/queue = %d/%d, want 3/5", v.Workers, v.QueueCapacity)
	}
	if v.Admitted != 2 || v.Cache.Hits != 1 || v.Cache.Misses != 1 {
		t.Errorf("admitted=%d hits=%d misses=%d, want 2/1/1", v.Admitted, v.Cache.Hits, v.Cache.Misses)
	}
	ep := v.Endpoints[epPartition]
	if ep.Requests != 2 || ep.Completed != 2 {
		t.Errorf("partition endpoint: %+v", ep)
	}
	if ep.Latency.Count != 2 || ep.Latency.SumNS <= 0 {
		t.Errorf("latency histogram: %+v", ep.Latency)
	}
	if v.InFlight != 0 || v.QueueDepth != 0 {
		t.Errorf("in_flight=%d queue_depth=%d, want 0/0 at rest", v.InFlight, v.QueueDepth)
	}
}

// TestVarzMemory: the memory block's total_alloc_bytes rises across one
// partition request, so an operator can read bytes per request as
// Δtotal_alloc_bytes / Δcompleted.
func TestVarzMemory(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1})
	runtime.GC() // heap_live_bytes reads 0 until the first collection
	read := func() varz {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/varz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v varz
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("varz decode: %v", err)
		}
		return v
	}
	before := read()
	req := mlpart.PartitionRequest{Graph: gridGraph(40, 40), K: 4}
	if resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("partition status %d: %s", resp.StatusCode, data)
	}
	after := read()
	if after.Memory.TotalAllocBytes <= before.Memory.TotalAllocBytes {
		t.Errorf("total_alloc_bytes %d -> %d across a partition request", before.Memory.TotalAllocBytes, after.Memory.TotalAllocBytes)
	}
	if after.Memory.GCCycles < before.Memory.GCCycles {
		t.Errorf("gc_cycles went back: %d -> %d", before.Memory.GCCycles, after.Memory.GCCycles)
	}
	if after.Memory.GCCycles > 0 && after.Memory.HeapLiveBytes == 0 {
		t.Errorf("heap_live_bytes is 0 after %d collections", after.Memory.GCCycles)
	}
	if d := after.Endpoints[epPartition].Completed - before.Endpoints[epPartition].Completed; d != 1 {
		t.Errorf("completed moved by %d, want 1", d)
	}
}
