package service

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"mlpart"
	"mlpart/internal/faults"
)

// sdk returns an SDK client for a test server with fast, deterministic
// polling.
func sdk(ts interface{ Client() *http.Client }, base string) *Client {
	return &Client{
		Base:            base,
		HTTP:            &RetryClient{Client: ts.Client(), Sleep: func(time.Duration) {}},
		PollInterval:    2 * time.Millisecond,
		MaxPollInterval: 2 * time.Millisecond,
		Rand:            rand.New(rand.NewSource(1)),
	}
}

func TestJobSubmitPollDoneParity(t *testing.T) {
	// Caching disabled: every path must actually compute, and determinism
	// alone must make the replies byte-identical — status code included,
	// for a failure the engine reports at compute time too.
	_, ts := newTestServer(t, Config{CacheSize: -1})
	c := sdk(ts, ts.URL)
	wg := gridGraph(16, 16)

	cases := []struct {
		name    string
		typ     string
		syncURL string
		req     any    // JSON request; nil selects the csrb body
		csrb    []byte // binary CSR body, its other fields in query
		query   string
		status  int
	}{
		{name: mlpart.JobTypePartition, typ: mlpart.JobTypePartition, syncURL: "/v1/partition",
			req: mlpart.PartitionRequest{Graph: wg, K: 4, Options: &mlpart.Options{Seed: 7}}, status: http.StatusOK},
		{name: mlpart.JobTypeOrder, typ: mlpart.JobTypeOrder, syncURL: "/v1/order",
			req: mlpart.OrderRequest{Graph: wg, Options: &mlpart.Options{Seed: 7}, Analyze: true}, status: http.StatusOK},
		{name: mlpart.JobTypeRepartition, typ: mlpart.JobTypeRepartition, syncURL: "/v1/repartition",
			req: mlpart.RepartitionRequest{Graph: wg, K: 2, Where: alternating(256, 2)}, status: http.StatusOK},
		{name: "partition-csrb", typ: mlpart.JobTypePartition, syncURL: "/v1/partition",
			csrb: binaryBody(t, wg, nil), query: "k=4&seed=7", status: http.StatusOK},
		{name: "repartition-csrb", typ: mlpart.JobTypeRepartition, syncURL: "/v1/repartition",
			csrb: binaryBody(t, wg, alternating(256, 2)), query: "k=2", status: http.StatusOK},
		{name: "k-exceeds-vertices", typ: mlpart.JobTypePartition, syncURL: "/v1/partition",
			req: mlpart.PartitionRequest{Graph: wg, K: 1000}, status: http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var syncBody []byte
			if tc.req != nil {
				resp, syncBody = postJSON(t, ts.Client(), ts.URL+tc.syncURL, tc.req)
			} else {
				resp, syncBody = postBinary(t, ts.Client(), ts.URL+tc.syncURL+"?"+tc.query, tc.csrb)
			}
			if resp.StatusCode != tc.status {
				t.Fatalf("sync status %d, want %d: %s", resp.StatusCode, tc.status, syncBody)
			}

			// The same request as a job, and as a batch entry (batches are
			// JSON only).
			var ids []string
			if tc.req != nil {
				jr, err := c.SubmitJob(context.Background(), tc.typ, tc.req)
				if err != nil {
					t.Fatalf("SubmitJob: %v", err)
				}
				if jr.Kind != mlpart.WireKindJob || jr.ID == "" || jr.Type != tc.typ {
					t.Fatalf("bad job response: %+v", jr)
				}
				entry := mlpart.BatchJob{Type: tc.typ}
				switch req := tc.req.(type) {
				case mlpart.PartitionRequest:
					entry.Partition = &req
				case mlpart.OrderRequest:
					entry.Order = &req
				case mlpart.RepartitionRequest:
					entry.Repartition = &req
				}
				br, err := c.SubmitBatch(context.Background(), []mlpart.BatchJob{entry})
				if err != nil || len(br.Jobs) != 1 || br.Jobs[0].ID == "" {
					t.Fatalf("SubmitBatch: %+v, %v", br, err)
				}
				ids = append(ids, jr.ID, br.Jobs[0].ID)
			} else {
				resp, data := postBinary(t, ts.Client(), ts.URL+"/v1/jobs?type="+tc.typ+"&"+tc.query, tc.csrb)
				var jr mlpart.JobResponse
				if err := json.Unmarshal(data, &jr); err != nil || resp.StatusCode != http.StatusAccepted || jr.ID == "" {
					t.Fatalf("csrb job submission: %d %s", resp.StatusCode, data)
				}
				ids = append(ids, jr.ID)
			}

			wantState := mlpart.JobStateDone
			if tc.status != http.StatusOK {
				wantState = mlpart.JobStateFailed
			}
			for _, id := range ids {
				res, err := c.WaitJob(context.Background(), id)
				if err != nil {
					t.Fatalf("WaitJob: %v", err)
				}
				if res.State != wantState || res.Status != tc.status {
					t.Fatalf("job finished %q (%d), want %q (%d): %s", res.State, res.Status, wantState, tc.status, res.Body)
				}
				if string(res.Body) != string(syncBody) {
					t.Fatalf("async result differs from sync result:\nasync: %s\nsync:  %s", res.Body, syncBody)
				}
			}
		})
	}
}

// alternating returns a length-n vector cycling over k parts.
func alternating(n, k int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = i % k
	}
	return w
}

func TestJobCacheSharedWithSync(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	c := sdk(ts, ts.URL)
	req := mlpart.PartitionRequest{Graph: gridGraph(12, 12), K: 2, Options: &mlpart.Options{Seed: 3}}

	resp, syncBody := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d", resp.StatusCode)
	}
	// The identical submission completes at submit time from the shared
	// result cache: the 202 already reports state done.
	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition, req)
	if err != nil {
		t.Fatal(err)
	}
	if jr.State != mlpart.JobStateDone {
		t.Fatalf("state = %q, want done at submission (cache hit)", jr.State)
	}
	res, err := c.WaitJob(context.Background(), jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Body) != string(syncBody) {
		t.Fatalf("cached job body differs from sync body")
	}
	if s.met.started.Load() != 1 {
		t.Fatalf("started = %d, want 1 (job must not recompute)", s.met.started.Load())
	}
}

func TestJobCancelWhileRunning(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := sdk(ts, ts.URL)
	entered := make(chan struct{}, 1)
	s.hookCompute = func(ctx context.Context) {
		entered <- struct{}{}
		<-ctx.Done()
	}

	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // the job holds the worker slot

	cr, err := c.CancelJob(context.Background(), jr.ID)
	if err != nil {
		t.Fatalf("CancelJob: %v", err)
	}
	if cr.State != mlpart.JobStateCanceled {
		t.Fatalf("state after cancel = %q", cr.State)
	}
	res, err := c.WaitJob(context.Background(), jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != mlpart.JobStateCanceled || res.Body != nil {
		t.Fatalf("WaitJob after cancel: %+v", res)
	}
	// The runner unwinds (engine sees the canceled context) and the
	// worker slot frees for new work.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.WaitJobs(ctx); err != nil {
		t.Fatalf("runner did not unwind after cancel: %v", err)
	}
	if got := s.met.canceled.Load(); got != 1 {
		t.Errorf("canceled = %d, want 1", got)
	}
}

func TestJobCancelWhileQueued(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := sdk(ts, ts.URL)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hookCompute = func(ctx context.Context) {
		entered <- struct{}{}
		<-release
	}

	a, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4, Options: &mlpart.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // job A occupies the only worker
	b, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4, Options: &mlpart.Options{Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if b.State != mlpart.JobStateQueued {
		t.Fatalf("job B state = %q, want queued behind the held worker", b.State)
	}
	cr, err := c.CancelJob(context.Background(), b.ID)
	if err != nil || cr.State != mlpart.JobStateCanceled {
		t.Fatalf("cancel queued job: state=%v err=%v", cr, err)
	}
	close(release)
	res, err := c.WaitJob(context.Background(), a.ID)
	if err != nil || res.State != mlpart.JobStateDone {
		t.Fatalf("job A: %+v, %v", res, err)
	}
	// B never started: the runner's Start was refused after the cancel.
	if got := s.met.started.Load(); got != 1 {
		t.Errorf("started = %d, want 1 (canceled job must never start)", got)
	}
}

func TestJobTTLEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{JobTTL: 50 * time.Millisecond})
	c := sdk(ts, ts.URL)
	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(8, 8), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(context.Background(), jr.ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			break // evicted
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still observable long past its TTL (status %d)", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestJobCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := sdk(ts, ts.URL)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hookCompute = func(ctx context.Context) {
		entered <- struct{}{}
		<-release
	}
	req := mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4, Options: &mlpart.Options{Seed: 7}}

	a, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition, req)
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	dup, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition, req)
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Coalesced || dup.ID != a.ID {
		t.Fatalf("duplicate submission not coalesced: %+v (want id %s)", dup, a.ID)
	}
	close(release)
	ra, err := c.WaitJob(context.Background(), a.ID)
	if err != nil || ra.State != mlpart.JobStateDone {
		t.Fatalf("job: %+v, %v", ra, err)
	}
	if got := s.met.started.Load(); got != 1 {
		t.Errorf("started = %d, want 1 (one execution for both submissions)", got)
	}
	if got := s.met.jobsCoalesced.Load(); got != 1 {
		t.Errorf("jobsCoalesced = %d, want 1", got)
	}
	// With the job finished, the key is released: a re-submission is a
	// fresh job (served from the cache, but under its own id).
	fresh, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition, req)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Coalesced || fresh.ID == a.ID {
		t.Fatalf("finished job absorbed a new submission: %+v", fresh)
	}
}

func TestJobShed429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, JobCapacity: 2})
	c := sdk(ts, ts.URL)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hookCompute = func(ctx context.Context) {
		entered <- struct{}{}
		<-release
	}
	defer close(release)

	submit := func(seed int64) (*http.Response, []byte) {
		body, _ := json.Marshal(mlpart.PartitionRequest{
			Graph: gridGraph(16, 16), K: 4, Options: &mlpart.Options{Seed: seed},
		})
		resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data := make([]byte, 4096)
		n, _ := resp.Body.Read(data)
		return resp, data[:n]
	}
	if resp, data := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submission: %d %s", resp.StatusCode, data)
	}
	<-entered
	if resp, data := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submission: %d %s", resp.StatusCode, data)
	}
	// Capacity 2 is now held entirely by active jobs: shed.
	resp, data := submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submission = %d, want 429: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed reply missing Retry-After")
	}
	if got := s.met.jobsShed.Load(); got != 1 {
		t.Errorf("jobsShed = %d, want 1", got)
	}
	_ = c
}

func TestJobDeadlineFails504(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := sdk(ts, ts.URL)
	s.hookCompute = func(ctx context.Context) { <-ctx.Done() }

	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4, TimeoutMS: 20})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitJob(context.Background(), jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != mlpart.JobStateFailed || res.Status != http.StatusGatewayTimeout {
		t.Fatalf("deadline job: state=%q status=%d body=%s", res.State, res.Status, res.Body)
	}
	var we mlpart.ErrorResponse
	if err := json.Unmarshal(res.Body, &we); err != nil || we.Kind != mlpart.WireKindError {
		t.Fatalf("failed job must replay a wire error: %s", res.Body)
	}
}

func TestJobBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	c := sdk(ts, ts.URL)
	wg := gridGraph(16, 16)

	resp, syncBody := postJSON(t, ts.Client(), ts.URL+"/v1/partition",
		mlpart.PartitionRequest{Graph: wg, K: 4, Options: &mlpart.Options{Seed: 7}})
	if resp.StatusCode != http.StatusOK {
		t.Fatal("sync partition failed")
	}

	br, err := c.SubmitBatch(context.Background(), []mlpart.BatchJob{
		{Partition: &mlpart.PartitionRequest{Graph: wg, K: 4, Options: &mlpart.Options{Seed: 7}}},
		{Order: &mlpart.OrderRequest{Graph: wg, Options: &mlpart.Options{Seed: 7}}}, // type inferred from the field
		{Type: mlpart.JobTypePartition}, // invalid: missing request field
	})
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if br.Kind != mlpart.WireKindBatch || len(br.Jobs) != 3 {
		t.Fatalf("batch response: %+v", br)
	}
	if br.Jobs[0].ID == "" || br.Jobs[1].ID == "" {
		t.Fatalf("valid entries must be admitted: %+v", br.Jobs)
	}
	if br.Jobs[1].Type != mlpart.JobTypeOrder {
		t.Fatalf("entry 1 type = %q, want inferred %q", br.Jobs[1].Type, mlpart.JobTypeOrder)
	}
	if br.Jobs[2].ID != "" || br.Jobs[2].Error == "" {
		t.Fatalf("invalid entry must carry its error in place: %+v", br.Jobs[2])
	}
	res, err := c.WaitJob(context.Background(), br.Jobs[0].ID)
	if err != nil || res.State != mlpart.JobStateDone {
		t.Fatalf("batch job 0: %+v, %v", res, err)
	}
	if string(res.Body) != string(syncBody) {
		t.Fatal("batch-submitted job result differs from sync result")
	}
	if res2, err := c.WaitJob(context.Background(), br.Jobs[1].ID); err != nil || res2.State != mlpart.JobStateDone {
		t.Fatalf("batch job 1: %+v, %v", res2, err)
	}
	_ = s
}

func TestJobDrainRefusesAndWaits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	c := sdk(ts, ts.URL)
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.hookCompute = func(ctx context.Context) {
		entered <- struct{}{}
		<-release
	}

	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	s.BeginDrain()

	// New submissions are refused while draining.
	body, _ := json.Marshal(mlpart.PartitionRequest{Graph: gridGraph(8, 8), K: 2})
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission while draining = %d, want 503", resp.StatusCode)
	}

	// WaitJobs blocks on the running job...
	short, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.WaitJobs(short); err == nil {
		t.Fatal("WaitJobs returned while a job was still running")
	}
	// ...and returns once it finishes.
	close(release)
	ctx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.WaitJobs(ctx); err != nil {
		t.Fatalf("WaitJobs after release: %v", err)
	}
	if res, err := c.WaitJob(context.Background(), jr.ID); err != nil || res.State != mlpart.JobStateDone {
		t.Fatalf("drained job must finish: %+v, %v", res, err)
	}
}

func TestJobTraceEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := sdk(ts, ts.URL)
	body, _ := json.Marshal(mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4})
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs?trace=1", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var jr mlpart.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	res, err := c.WaitJob(context.Background(), jr.ID)
	if err != nil || res.State != mlpart.JobStateDone {
		t.Fatalf("traced job: %+v, %v", res, err)
	}
	var env struct {
		Result json.RawMessage     `json:"result"`
		Trace  []mlpart.TraceEvent `json:"trace"`
	}
	if err := json.Unmarshal(res.Body, &env); err != nil {
		t.Fatalf("traced job body is not the trace envelope: %v\n%s", err, res.Body)
	}
	if len(env.Result) == 0 || len(env.Trace) == 0 {
		t.Fatalf("empty trace envelope: %s", res.Body)
	}
	jobEvents := 0
	for _, e := range env.Trace {
		if string(e.Kind) == "job" {
			jobEvents++
			if e.Job != jr.ID {
				t.Errorf("job event carries id %q, want %q", e.Job, jr.ID)
			}
		}
	}
	if jobEvents != 2 {
		t.Errorf("job lifecycle events = %d, want 2 (started, done)", jobEvents)
	}
}

func TestVarzJobsAndVersionFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	c := sdk(ts, ts.URL)
	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(8, 8), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(context.Background(), jr.ID); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Get(ts.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v varz
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.SchemaVersion != mlpart.SchemaVersion {
		t.Errorf("schema_version = %d", v.SchemaVersion)
	}
	if v.BuildVersion == "" {
		t.Error("build_version missing")
	}
	if v.UptimeSeconds <= 0 {
		t.Errorf("uptime_seconds = %v", v.UptimeSeconds)
	}
	if v.Jobs.Submitted != 1 || v.Jobs.Done != 1 {
		t.Errorf("jobs varz: %+v", v.Jobs)
	}
	if v.Jobs.RunLatency.Count != 1 {
		t.Errorf("run latency count = %d, want 1", v.Jobs.RunLatency.Count)
	}
	if v.Jobs.Capacity != 1024 || v.Jobs.TTLMS != (10*time.Minute).Milliseconds() {
		t.Errorf("jobs store defaults: %+v", v.Jobs)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	var h histogram
	h.observe(time.Millisecond)
	h.observe(30 * time.Second) // past the last finite pow2 bound (~8.4s)
	v := h.varz()
	if v.Overflow != 1 {
		t.Fatalf("overflow = %d, want 1", v.Overflow)
	}
	if v.Count != 2 {
		t.Fatalf("count = %d, want 2", v.Count)
	}
	if len(v.Bucket) == 0 || v.Bucket[len(v.Bucket)-1]+v.Overflow != v.Count {
		t.Fatalf("bucket mass %v + overflow %d != count %d", v.Bucket, v.Overflow, v.Count)
	}
}

func TestChaosJobPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("jobs/run=panic@1"),
	})
	c := sdk(ts, ts.URL)
	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitJob(context.Background(), jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != mlpart.JobStateFailed || res.Status != http.StatusInternalServerError {
		t.Fatalf("poisoned job: state=%q status=%d", res.State, res.Status)
	}
	var we mlpart.ErrorResponse
	if err := json.Unmarshal(res.Body, &we); err != nil || !strings.Contains(we.Error, "incident") {
		t.Fatalf("failed job must replay the incident error: %s", res.Body)
	}
	if got := s.met.panicsRecovered.Load(); got != 1 {
		t.Errorf("panicsRecovered = %d, want 1", got)
	}
	// The daemon survives: the next job (rule exhausted) succeeds.
	jr2, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res2, err := c.WaitJob(context.Background(), jr2.ID); err != nil || res2.State != mlpart.JobStateDone {
		t.Fatalf("daemon did not recover: %+v, %v", res2, err)
	}
}

func TestChaosJobInjectedError(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("jobs/run=error@1"),
	})
	c := sdk(ts, ts.URL)
	jr, err := c.SubmitJob(context.Background(), mlpart.JobTypePartition,
		mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitJob(context.Background(), jr.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.State != mlpart.JobStateFailed || res.Status != http.StatusInternalServerError {
		t.Fatalf("injected error job: state=%q status=%d body=%s", res.State, res.Status, res.Body)
	}
	if got := s.met.errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if got := s.met.panicsRecovered.Load(); got != 0 {
		t.Errorf("panicsRecovered = %d, want 0 (error, not panic)", got)
	}
}
