package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mlpart"
	"mlpart/internal/faults"
	"mlpart/internal/sessions"
)

func getURL(t *testing.T, client *http.Client, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestSessionEndpointLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := &Client{Base: ts.URL, HTTP: &RetryClient{Client: ts.Client()}}
	ctx := context.Background()

	st, err := c.CreateSession(ctx, &mlpart.SessionCreateRequest{
		Graph: gridGraph(12, 12), K: 2, Seed: 7,
	})
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if st.Kind != mlpart.WireKindSession || st.Vertices != 144 || st.K != 2 || st.EdgeCut <= 0 {
		t.Fatalf("bad create response: %+v", st)
	}
	if st.ID == "" || st.Where != nil {
		t.Fatalf("id %q / where %v", st.ID, st.Where)
	}

	got, err := c.GetSession(ctx, st.ID, true)
	if err != nil {
		t.Fatalf("GetSession: %v", err)
	}
	if len(got.Where) != 144 {
		t.Fatalf("where length %d", len(got.Where))
	}

	// Listing shows exactly this session.
	resp, data := getURL(t, ts.Client(), ts.URL+"/v1/graphs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d: %s", resp.StatusCode, data)
	}
	var list mlpart.SessionListResponse
	if err := json.Unmarshal(data, &list); err != nil {
		t.Fatalf("decode list: %v", err)
	}
	if list.Kind != mlpart.WireKindSessionList || len(list.Sessions) != 1 || list.Sessions[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	after, err := c.ApplyDeltas(ctx, st.ID, []mlpart.DeltaOp{
		{Op: mlpart.DeltaOpAdd, U: 0, V: 143, W: 1},
	})
	if err != nil {
		t.Fatalf("ApplyDeltas: %v", err)
	}
	if after.Seq != 1 || after.Deltas != 1 || after.LastRepair == "" {
		t.Fatalf("delta response: %+v", after)
	}

	rep, err := c.RepairSession(ctx, st.ID, "full")
	if err != nil {
		t.Fatalf("RepairSession: %v", err)
	}
	if rep.LastRepair != "full" || len(rep.Where) != 144 {
		t.Fatalf("repair response: %+v", rep)
	}

	if err := c.DeleteSession(ctx, st.ID); err != nil {
		t.Fatalf("DeleteSession: %v", err)
	}
	if _, err := c.GetSession(ctx, st.ID, false); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("get after delete: %v", err)
	}
}

func TestSessionBinaryCreate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	wg := gridGraph(10, 10)
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mlpart.WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/graphs?k=2&seed=5",
		mlpart.ContentTypeBinaryCSR, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var st mlpart.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Vertices != 100 || st.K != 2 {
		t.Fatalf("binary create: %+v", st)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/graphs/"+st.ID {
		t.Fatalf("Location = %q", loc)
	}
}

func TestSessionEndpointStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1, MaxDeltaOps: 2})
	c := &Client{Base: ts.URL, HTTP: &RetryClient{Client: ts.Client()}}
	ctx := context.Background()
	client := ts.Client()

	st, err := c.CreateSession(ctx, &mlpart.SessionCreateRequest{Graph: gridGraph(8, 8), K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Same graph again → 409.
	resp, _ := postJSON(t, client, ts.URL+"/v1/graphs",
		mlpart.SessionCreateRequest{Graph: gridGraph(8, 8), K: 2, Seed: 1})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate: status %d, want 409", resp.StatusCode)
	}
	// Session count budget exhausted → 429 with Retry-After.
	resp, _ = postJSON(t, client, ts.URL+"/v1/graphs",
		mlpart.SessionCreateRequest{Graph: gridGraph(9, 9), K: 2, Seed: 1})
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over budget: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	// Invalid config → 400.
	resp, _ = postJSON(t, client, ts.URL+"/v1/graphs",
		mlpart.SessionCreateRequest{Graph: gridGraph(4, 4), K: 1})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("k=1: status %d, want 400", resp.StatusCode)
	}
	// Unknown session → 404.
	resp, _ = getURL(t, client, ts.URL+"/v1/graphs/gdeadbeef00000000")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown id: status %d, want 404", resp.StatusCode)
	}
	// Invalid op → 400, and the batch rolled back.
	resp, _ = postJSON(t, client, ts.URL+"/v1/graphs/"+st.ID+"/edges",
		mlpart.SessionDeltaRequest{Ops: []mlpart.DeltaOp{{Op: "remove", U: 0, V: 63}}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op: status %d, want 400", resp.StatusCode)
	}
	// Oversized delta batch → 413.
	resp, _ = postJSON(t, client, ts.URL+"/v1/graphs/"+st.ID+"/edges",
		mlpart.SessionDeltaRequest{Ops: []mlpart.DeltaOp{
			{Op: "vwgt", U: 0, W: 2}, {Op: "vwgt", U: 1, W: 2}, {Op: "vwgt", U: 2, W: 2},
		}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized batch: status %d, want 413", resp.StatusCode)
	}
	// Unknown repair mode → 400.
	resp, _ = postJSON(t, client, ts.URL+"/v1/graphs/"+st.ID+"/repartition",
		mlpart.SessionRepairRequest{Mode: "nonsense"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad mode: status %d, want 400", resp.StatusCode)
	}
	// Unknown subresource → 404.
	resp, _ = postJSON(t, client, ts.URL+"/v1/graphs/"+st.ID+"/zap", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("bad subresource: status %d, want 404", resp.StatusCode)
	}
}

func TestSessionOversizeGraphSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessionBytes: 64 << 10, MaxResidentBytes: 64 << 10})
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/graphs",
		mlpart.SessionCreateRequest{Graph: gridGraph(50, 50), K: 2, Seed: 1})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
}

func TestSessionAPIDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: -1})
	resp, _ := getURL(t, ts.Client(), ts.URL+"/v1/graphs")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("list: status %d, want 404", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/graphs",
		mlpart.SessionCreateRequest{Graph: gridGraph(4, 4), K: 2})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("create: status %d, want 404", resp.StatusCode)
	}
}

func TestSessionDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c := &Client{Base: ts.URL, HTTP: &RetryClient{Client: ts.Client()}}
	st, err := c.CreateSession(context.Background(), &mlpart.SessionCreateRequest{Graph: gridGraph(6, 6), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.BeginDrain()
	// Mutating POSTs are refused...
	resp, _ := postJSON(t, ts.Client(), ts.URL+"/v1/graphs",
		mlpart.SessionCreateRequest{Graph: gridGraph(7, 7), K: 2})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create while draining: status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.Client(), ts.URL+"/v1/graphs/"+st.ID+"/edges",
		mlpart.SessionDeltaRequest{Ops: []mlpart.DeltaOp{{Op: "vwgt", U: 0, W: 2}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("delta while draining: status %d", resp.StatusCode)
	}
	// ...but reads and deletes still work so clients can wind down.
	if _, err := c.GetSession(context.Background(), st.ID, false); err != nil {
		t.Fatalf("get while draining: %v", err)
	}
	if err := c.DeleteSession(context.Background(), st.ID); err != nil {
		t.Fatalf("delete while draining: %v", err)
	}
}

func TestSessionFaultIncident(t *testing.T) {
	inj := faults.MustParse(faults.SiteSessionApply + "=error@1")
	_, ts := newTestServer(t, Config{FaultInjector: inj})
	c := &Client{Base: ts.URL, HTTP: &RetryClient{Client: ts.Client()}}
	st, err := c.CreateSession(context.Background(), &mlpart.SessionCreateRequest{Graph: gridGraph(8, 8), K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/graphs/"+st.ID+"/edges",
		mlpart.SessionDeltaRequest{Ops: []mlpart.DeltaOp{{Op: "add", U: 0, V: 63, W: 1}}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Incident-Id") == "" {
		t.Fatal("no incident id on injected failure")
	}
	// The session survives the fault and the batch left no trace.
	got, err := c.GetSession(context.Background(), st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 || got.EdgeCut != st.EdgeCut {
		t.Fatalf("state drifted: %+v vs %+v", got, st)
	}
}

func TestSessionVarz(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 4, MaxDeltaOps: 2})
	c := &Client{Base: ts.URL, HTTP: &RetryClient{Client: ts.Client()}}
	ctx := context.Background()
	st, err := c.CreateSession(ctx, &mlpart.SessionCreateRequest{Graph: gridGraph(8, 8), K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyDeltas(ctx, st.ID, []mlpart.DeltaOp{{Op: "add", U: 0, V: 63, W: 1}}); err != nil {
		t.Fatal(err)
	}
	// One shed batch for the counter.
	postJSON(t, ts.Client(), ts.URL+"/v1/graphs/"+st.ID+"/edges",
		mlpart.SessionDeltaRequest{Ops: []mlpart.DeltaOp{
			{Op: "vwgt", U: 0, W: 2}, {Op: "vwgt", U: 1, W: 2}, {Op: "vwgt", U: 2, W: 2},
		}})

	resp, data := getURL(t, ts.Client(), ts.URL+"/varz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("varz status %d", resp.StatusCode)
	}
	var v varz
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("decode varz: %v", err)
	}
	sv := v.Sessions
	if !sv.Enabled || sv.Count != 1 || sv.MaxSessions != 4 {
		t.Fatalf("sessions varz: %+v", sv)
	}
	if sv.Created != 1 || sv.DeltasApplied != 1 || sv.OpsApplied != 1 || sv.ShedBatch != 1 {
		t.Fatalf("sessions counters: %+v", sv)
	}
	if sv.ResidentBytes <= 0 {
		t.Fatalf("resident bytes %d", sv.ResidentBytes)
	}
	if sv.Repairs.Boundary+sv.Repairs.Full+sv.Repairs.VCycle != 1 {
		t.Fatalf("repair counters: %+v", sv.Repairs)
	}
	if _, ok := v.Endpoints["sessions"]; !ok {
		t.Fatalf("no sessions endpoint block: %v", v.Endpoints)
	}
}

func TestJobsBatchCap(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatchJobs: 2})
	entries := make([]mlpart.BatchJob, 3)
	for i := range entries {
		r := mlpart.PartitionRequest{Graph: gridGraph(4, 4), K: 2, Options: &mlpart.Options{Seed: int64(i + 1)}}
		entries[i] = mlpart.BatchJob{Partition: &r}
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/jobs/batch", mlpart.BatchRequest{Jobs: entries})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, data)
	}
	// Two entries fit.
	resp, data = postJSON(t, ts.Client(), ts.URL+"/v1/jobs/batch", mlpart.BatchRequest{Jobs: entries[:2]})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	vresp, vdata := getURL(t, ts.Client(), ts.URL+"/varz")
	if vresp.StatusCode != http.StatusOK {
		t.Fatal("varz unavailable")
	}
	var v varz
	if err := json.Unmarshal(vdata, &v); err != nil {
		t.Fatal(err)
	}
	if v.Jobs.MaxBatchJobs != 2 || v.Jobs.BatchOversize != 1 {
		t.Fatalf("jobs varz: max_batch_jobs %d, batch_oversize %d", v.Jobs.MaxBatchJobs, v.Jobs.BatchOversize)
	}
}

// TestSessionCreateRejectsAsymmetricGraph: the session manager trusts the
// decoders to validate a graph, so an asymmetric graph must get its 400
// from decoding, in JSON and in csrb alike.
func TestSessionCreateRejectsAsymmetricGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 0-1 weighs 1 one way and 2 the other; 1-2 is symmetric.
	wg := mlpart.WireGraph{Xadj: []int{0, 1, 3, 4}, Adjncy: []int{1, 0, 2, 1}, Adjwgt: []int{1, 2, 1, 1}}
	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/graphs", mlpart.SessionCreateRequest{Graph: wg, K: 2})
	if want := "bad graph: graph: asymmetric edge (0,1): 1 vs 2"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), want) {
		t.Errorf("json: status %d, body %s; want 400 naming %q", resp.StatusCode, data, want)
	}

	var buf bytes.Buffer
	g := &mlpart.Graph{Xadj: wg.Xadj, Adjncy: wg.Adjncy, Adjwgt: wg.Adjwgt, Vwgt: []int{1, 1, 1}}
	if err := mlpart.WriteBinaryGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	resp, data = postBinary(t, ts.Client(), ts.URL+"/v1/graphs?k=2", buf.Bytes())
	if want := "bad graph: graph: asymmetric edge (0,1): 1 vs 2"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), want) {
		t.Errorf("csrb: status %d, body %s; want 400 naming %q", resp.StatusCode, data, want)
	}
}

// holdSlot sends a partition request that holds s's worker slot from
// inside the computation until the returned func is called; that func
// waits for the held request's reply. Every later computation runs
// through the hook without stopping.
func holdSlot(t *testing.T, s *Server, ts *httptest.Server) (release func()) {
	t.Helper()
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	s.hookCompute = func(context.Context) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-block
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJSONNoFatal(ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{Graph: gridGraph(8, 8), K: 2})
	}()
	<-entered
	return func() {
		close(block)
		<-done
	}
}

// residentSession creates a session on s's manager directly, bypassing
// the request path and its fault sites.
func residentSession(t *testing.T, s *Server, wg mlpart.WireGraph) *sessions.State {
	t.Helper()
	st, err := s.sessions.Create(mustGraph(t, wg), sessions.Config{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sessionWrites returns one request of each session write on session id.
func sessionWrites(id string) []struct {
	name, path string
	body       any
} {
	return []struct {
		name, path string
		body       any
	}{
		{"create", "/v1/graphs", mlpart.SessionCreateRequest{Graph: gridGraph(9, 9), K: 2, Seed: 1}},
		{"delta", "/v1/graphs/" + id + "/edges", mlpart.SessionDeltaRequest{Ops: []mlpart.DeltaOp{{Op: "vwgt", U: 0, W: 2}}}},
		{"repair", "/v1/graphs/" + id + "/repartition", mlpart.SessionRepairRequest{Mode: "full"}},
	}
}

// TestSessionWritesShedWhenSaturated: with the only worker slot held and
// no queue, every session write is shed at admission with a fast 429 and
// Retry-After, counted as rejected, instead of holding its decoded body
// until the deadline; once the slot frees, a write is admitted.
func TestSessionWritesShedWhenSaturated(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: -1, Timeout: 2 * time.Second})
	st := residentSession(t, s, gridGraph(8, 8))
	release := holdSlot(t, s, ts)
	for _, wr := range sessionWrites(st.ID) {
		start := time.Now()
		resp, data := postJSON(t, ts.Client(), ts.URL+wr.path, wr.body)
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s while saturated: status %d, Retry-After %q after %s: %s",
				wr.name, resp.StatusCode, resp.Header.Get("Retry-After"), time.Since(start), data)
		}
	}
	release()
	if a, r := s.met.admitted.Load(), s.met.rejected.Load(); a != 1 || r != 3 {
		t.Errorf("admitted %d, rejected %d; want 1 (the held request) and 3", a, r)
	}
	resp, data := postJSON(t, ts.Client(), ts.URL+sessionWrites(st.ID)[1].path, sessionWrites(st.ID)[1].body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after the slot freed: status %d: %s", resp.StatusCode, data)
	}
	if a := s.met.admitted.Load(); a != 2 {
		t.Errorf("admitted %d after the delta, want 2", a)
	}
}

// TestSessionWriteQueueDeadline: a session write admitted into the queue
// that waits past its deadline gets 504 without entering the pool, and
// counts as admitted and timed out.
func TestSessionWriteQueueDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueSize: 1, Timeout: 200 * time.Millisecond})
	st := residentSession(t, s, gridGraph(8, 8))
	release := holdSlot(t, s, ts)
	defer release()
	delta := sessionWrites(st.ID)[1]
	resp, data := postJSON(t, ts.Client(), ts.URL+delta.path, delta.body)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("queued delta: status %d, want 504: %s", resp.StatusCode, data)
	}
	// The held request counts as started only once its hook returns.
	if a, to, started := s.met.admitted.Load(), s.met.timedOut.Load(), s.met.started.Load(); a != 2 || to != 1 || started != 0 {
		t.Errorf("admitted %d, timed_out %d, started %d; want 2, 1, 0", a, to, started)
	}
	if got, err := s.sessions.Get(st.ID, false); err != nil || got.Seq != 0 {
		t.Errorf("session after the timed-out delta: %+v, %v", got, err)
	}
}

// TestSessionWritesCarryComputeTime: a session write's 201 or 200 carries
// X-Compute-Ns like every computed reply, but no X-Cache header, and
// ?trace=1 wraps nothing: the body is the session state.
func TestSessionWritesCarryComputeTime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	id := sessions.IDFor(mustGraph(t, gridGraph(9, 9)))
	for i, wr := range sessionWrites(id) {
		resp, data := postJSON(t, ts.Client(), ts.URL+wr.path+"?trace=1", wr.body)
		want := http.StatusOK
		if i == 0 {
			want = http.StatusCreated
		}
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d: %s", wr.name, resp.StatusCode, want, data)
		}
		if resp.Header.Get("X-Compute-Ns") == "" || resp.Header.Get("X-Cache") != "" {
			t.Errorf("%s: X-Compute-Ns %q, X-Cache %q; want a time and no cache status",
				wr.name, resp.Header.Get("X-Compute-Ns"), resp.Header.Get("X-Cache"))
		}
		var sr mlpart.SessionResponse
		if err := json.Unmarshal(data, &sr); err != nil || sr.Kind != mlpart.WireKindSession || sr.ID != id {
			t.Errorf("%s: body is not the session's state: %s", wr.name, data)
		}
	}
}

// TestSessionCreateHonorsDeadline: a create whose initial V-cycle outlasts
// the server's deadline answers 504, as /v1/partition does, and leaves no
// session behind.
func TestSessionCreateHonorsDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: time.Millisecond})
	wg := gridGraph(150, 150)
	resp, data := postBinary(t, ts.Client(), ts.URL+"/v1/graphs?k=8&seed=1", binaryBody(t, wg, nil))
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", resp.StatusCode, data)
	}
	if n := s.sessions.Stats().Sessions; n != 0 {
		t.Fatalf("%d sessions after a create past its deadline, want 0", n)
	}
	if _, err := s.sessions.Get(sessions.IDFor(mustGraph(t, wg)), false); !errors.Is(err, sessions.ErrNotFound) {
		t.Fatalf("the timed-out create is readable: %v", err)
	}
}

func mustGraph(t *testing.T, wg mlpart.WireGraph) *mlpart.Graph {
	t.Helper()
	g, err := wg.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}
