package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"mlpart"
	"mlpart/internal/faults"
)

// TestChaosServiceWorkerPanic poisons exactly the first request at the
// service worker boundary: it must come back as a 500 with an incident
// id, the daemon must keep serving (the identical retry succeeds), and
// the recovery must be counted.
func TestChaosServiceWorkerPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("service/worker=panic@1"),
	})
	req := mlpart.PartitionRequest{Graph: gridGraph(12, 12), K: 4, Options: &mlpart.Options{Seed: 7}}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status %d, want 500 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Incident-Id") == "" {
		t.Error("poisoned request: missing X-Incident-Id header")
	}
	var er mlpart.ErrorResponse
	if err := json.Unmarshal(data, &er); err != nil || er.Kind != mlpart.WireKindError {
		t.Errorf("500 body is not an error object: %s", data)
	}

	// The panic poisoned one request, not the daemon: the identical
	// request (trigger @1 is spent) must now succeed.
	resp2, data2 := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after poisoned request: status %d, want 200 (%s)", resp2.StatusCode, data2)
	}
	var pr mlpart.PartitionResponse
	if err := json.Unmarshal(data2, &pr); err != nil || len(pr.Where) != 144 {
		t.Fatalf("retry response malformed: %v %s", err, data2)
	}

	if got := s.met.panicsRecovered.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
}

// TestChaosEngineBisectPanic drives the panic deep into a parallel
// best-of-NCuts bisection worker goroutine: the recovery chain
// (trial goroutine capture -> engine fail -> run error -> handler 500)
// must hold across all of those layers.
func TestChaosEngineBisectPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("engine/bisect=panic@1"),
	})
	req := mlpart.PartitionRequest{Graph: gridGraph(16, 16), K: 4, Options: &mlpart.Options{
		Seed: 3, Parallel: true, NCuts: 4,
	}}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned request: status %d, want 500 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Incident-Id") == "" {
		t.Error("poisoned request: missing X-Incident-Id header")
	}

	resp2, data2 := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry after poisoned request: status %d, want 200 (%s)", resp2.StatusCode, data2)
	}

	if got := s.met.panicsRecovered.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
	if got := s.met.errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
}

// TestChaosHammer fires probabilistic panics at the worker boundary while
// many clients hammer the daemon concurrently (run under -race in CI with
// several CHAOS_SEED values). Every response must be a clean 200 or a
// 500-with-incident — never a hang, crash or torn body — and the recovery
// counter must account for every 500.
func TestChaosHammer(t *testing.T) {
	seed := 1
	if v := os.Getenv("CHAOS_SEED"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", v, err)
		}
		seed = n
	}
	plan := fmt.Sprintf("seed=%d;service/worker=panic@p0.3", seed)
	s, ts := newTestServer(t, Config{
		Workers:       4,
		CacheSize:     -1, // every request must reach the worker boundary
		FaultInjector: faults.MustParse(plan),
	})

	const clients, perClient = 8, 5
	var failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, _ := postJSONNoFatal(ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{
					Graph: gridGraph(10, 10), K: 2, Options: &mlpart.Options{Seed: int64(c)},
				})
				if resp == nil {
					t.Errorf("client %d request %d: transport error", c, i)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK, http.StatusTooManyRequests:
				case http.StatusInternalServerError:
					failed.Add(1)
					if resp.Header.Get("X-Incident-Id") == "" {
						t.Errorf("client %d request %d: 500 without X-Incident-Id", c, i)
					}
				default:
					t.Errorf("client %d request %d: unexpected status %d", c, i, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()

	// The daemon survived the barrage and every 500 was a counted
	// recovery, not a silent swallow.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("daemon unreachable after hammer: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after hammer: %d", resp.StatusCode)
	}
	if got, want := s.met.panicsRecovered.Load(), failed.Load(); got != want {
		t.Errorf("panics_recovered = %d, but clients saw %d poisoned responses", got, want)
	}
	t.Logf("chaos seed %d: %d/%d requests poisoned and recovered", seed, failed.Load(), clients*perClient)
}

// TestChaosInjectedErrorIs500NotPanic: an injected *error* (not panic) at
// the worker boundary is an internal failure with an incident id but must
// not count as a recovered panic.
func TestChaosInjectedError(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("service/worker=error@1"),
	})
	req := mlpart.PartitionRequest{Graph: gridGraph(8, 8), K: 2}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Incident-Id") == "" {
		t.Error("missing X-Incident-Id header")
	}
	if got := s.met.panicsRecovered.Load(); got != 0 {
		t.Errorf("panics_recovered = %d, want 0 (injected error is not a panic)", got)
	}
	if got := s.met.errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}

	resp2, _ := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d, want 200", resp2.StatusCode)
	}
}

// TestChaosOrderInjectedError: an error injected into a bisection of
// nested dissection is classified as an injected error, the same as on
// /v1/partition: a 500 with an incident id, counted in errors but not as
// a recovered panic.
func TestChaosOrderInjectedError(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("engine/bisect=error@1"),
	})
	req := mlpart.OrderRequest{Graph: gridGraph(16, 16), Options: &mlpart.Options{Seed: 3}}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/order", req)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500 (%s)", resp.StatusCode, data)
	}
	if resp.Header.Get("X-Incident-Id") == "" {
		t.Error("missing X-Incident-Id header")
	}
	if got := s.met.panicsRecovered.Load(); got != 0 {
		t.Errorf("panics_recovered = %d, want 0 (injected error is not a panic)", got)
	}
	if got := s.met.errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}

	resp2, data2 := postJSON(t, ts.Client(), ts.URL+"/v1/order", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("retry status %d, want 200 (%s)", resp2.StatusCode, data2)
	}
}

// TestDegradedResultNotCached: a response produced through a degradation
// fallback is valid but execution-specific; it must be counted and must
// not be replayed from the cache once the fault plan stops firing.
func TestDegradedResultNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("coarsen/match=error@1"),
	})
	req := mlpart.PartitionRequest{Graph: gridGraph(14, 14), K: 2, Options: &mlpart.Options{
		Seed: 5, Matching: "HCM",
	}}

	resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded request: status %d, want 200 (%s)", resp.StatusCode, data)
	}
	var pr mlpart.PartitionResponse
	if err := json.Unmarshal(data, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Degradations) == 0 {
		t.Fatalf("response carries no degradations: %s", data)
	}
	if pr.Degradations[0].Phase != "coarsen" || pr.Degradations[0].To != "HEM" {
		t.Errorf("degradation = %+v, want coarsen HCM->HEM", pr.Degradations[0])
	}
	if got := s.met.degraded.Load(); got != 1 {
		t.Errorf("degraded_results = %d, want 1", got)
	}

	// The retry (fault spent) computes cleanly: no cache hit, and no
	// degradations in the body.
	resp2, data2 := postJSON(t, ts.Client(), ts.URL+"/v1/partition", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("clean retry: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got == "hit" {
		t.Error("clean retry served from cache: degraded results must not be cached")
	}
	var pr2 mlpart.PartitionResponse
	if err := json.Unmarshal(data2, &pr2); err != nil {
		t.Fatal(err)
	}
	if len(pr2.Degradations) != 0 {
		t.Errorf("clean retry still reports degradations: %+v", pr2.Degradations)
	}
}

// TestChaosSessionWorkerPanic poisons the service worker path of a session
// delta: the write comes back as a 500 with an incident id, the recovery
// is counted, the session is exactly as before, and the next delta
// succeeds.
func TestChaosSessionWorkerPanic(t *testing.T) {
	s, ts := newTestServer(t, Config{
		FaultInjector: faults.MustParse("service/worker=panic@1"),
	})
	st := residentSession(t, s, gridGraph(8, 8))
	delta := sessionWrites(st.ID)[1]

	resp, data := postJSON(t, ts.Client(), ts.URL+delta.path, delta.body)
	if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("X-Incident-Id") == "" {
		t.Fatalf("poisoned delta: status %d, X-Incident-Id %q, want 500 with an id (%s)",
			resp.StatusCode, resp.Header.Get("X-Incident-Id"), data)
	}
	if got := s.met.panicsRecovered.Load(); got != 1 {
		t.Errorf("panics_recovered = %d, want 1", got)
	}
	got, err := s.sessions.Get(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != st.Seq || got.Deltas != 0 || got.Cut != st.Cut {
		t.Fatalf("the poisoned delta changed the session: %+v, was %+v", got, st)
	}

	resp, data = postJSON(t, ts.Client(), ts.URL+delta.path, delta.body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta after the poisoned one: status %d, want 200 (%s)", resp.StatusCode, data)
	}
	var sr mlpart.SessionResponse
	if err := json.Unmarshal(data, &sr); err != nil || sr.Deltas != 1 || sr.Seq != 1 {
		t.Fatalf("delta reply: %s (%v)", data, err)
	}
}
