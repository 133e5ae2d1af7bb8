// Command servicesmoke is the CI smoke test for the mlserved daemon. It
// builds the real binaries, starts mlserved on a free port, POSTs a
// generated workload to /v1/partition, diffs the edge-cut against the
// mlpart CLI on the same input (both paths are deterministic for a fixed
// seed, so they must agree exactly), verifies /healthz, /varz and a
// byte-identical cache hit, re-POSTs the graph as binary CSR
// (application/x-mlpart-csr) and requires a cache hit shared with the
// JSON requests, submits a batch of async jobs through the SDK client
// and diffs every polled result's edge-cut against the CLI, then sends
// SIGTERM and requires the drain choreography: /readyz flips to 503
// while /healthz stays 200 for the -ready-grace window, then the daemon
// exits 0. A second daemon run with a delay fault at jobs/run proves the
// drain path waits for a running async job ("jobs drained" in its log)
// instead of abandoning it. A third run exercises durable graph
// sessions: it creates a session, streams delta batches (the first must
// carry X-Compute-Ns), forces a repartition, requires /varz admitted to
// have risen by one per session write, SIGKILLs the daemon mid-flight, restarts it on the same
// -state-dir and requires the recovered partition vector and edge-cut
// to be byte-identical to the pre-kill state. It exits non-zero with a
// diagnostic on any mismatch.
//
// All traffic goes through service.RetryClient, so the startup wait and
// the POSTs double as an exercise of the backoff path.
//
// Run it from the repository root:
//
//	go run ./scripts/servicesmoke
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"mlpart"
	"mlpart/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "servicesmoke:", err)
		os.Exit(1)
	}
	fmt.Println("service smoke OK")
}

func run() error {
	tmp, err := os.MkdirTemp("", "mlsmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	mlserved := filepath.Join(tmp, "mlserved")
	mlpartBin := filepath.Join(tmp, "mlpart")
	for bin, pkg := range map[string]string{mlserved: "./cmd/mlserved", mlpartBin: "./cmd/mlpart"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("build %s: %v", pkg, err)
		}
	}

	// One workload, two routes: the daemon gets it as CSR JSON, the CLI
	// as a METIS graph file.
	const (
		workload = "4ELT"
		scale    = 0.05
		k        = 8
		seed     = 7
	)
	g, err := mlpart.GenerateWorkload(workload, scale)
	if err != nil {
		return err
	}
	graphFile := filepath.Join(tmp, "g.graph")
	gf, err := os.Create(graphFile)
	if err != nil {
		return err
	}
	if err := mlpart.WriteGraph(gf, g); err != nil {
		return err
	}
	if err := gf.Close(); err != nil {
		return err
	}
	reqBody, err := json.Marshal(mlpart.PartitionRequest{
		Graph:   *mlpart.NewWireGraph(g),
		K:       k,
		Options: &mlpart.Options{Seed: seed},
	})
	if err != nil {
		return err
	}

	// A free port from the kernel; the tiny close-to-bind race is
	// acceptable for a smoke test.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()

	const readyGrace = 2 * time.Second
	daemon := exec.Command(mlserved, "-addr", addr, "-workers", "2", "-drain", "10s",
		"-ready-grace", readyGrace.String())
	daemon.Stderr = os.Stderr
	if err := daemon.Start(); err != nil {
		return err
	}
	defer daemon.Process.Kill()
	base := "http://" + addr

	// All traffic through the retry client: the startup wait is just
	// retried transport errors until the listener is up, and any 429 shed
	// by the admission queue backs off instead of failing the smoke.
	rc := &service.RetryClient{
		MaxAttempts: 40,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
	}
	resp, err := rc.Get(base + "/healthz")
	if err != nil {
		return fmt.Errorf("daemon never became healthy: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("daemon never became healthy: /healthz status %d", resp.StatusCode)
	}

	post := func() (*http.Response, []byte, error) {
		resp, err := rc.Post(base+"/v1/partition", "application/json", reqBody)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		return resp, data, err
	}
	resp, body, err := post()
	if err != nil {
		return fmt.Errorf("POST /v1/partition: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/partition: status %d: %s", resp.StatusCode, body)
	}
	var served mlpart.PartitionResponse
	if err := json.Unmarshal(body, &served); err != nil {
		return fmt.Errorf("decode daemon response: %v", err)
	}

	// The CLI on the same input must agree on the cut exactly.
	out, err := exec.Command(mlpartBin, "-json", "-k", fmt.Sprint(k), "-seed", fmt.Sprint(seed), graphFile).Output()
	if err != nil {
		return fmt.Errorf("mlpart CLI: %v", err)
	}
	var cli mlpart.PartitionResponse
	if err := json.Unmarshal(out, &cli); err != nil {
		return fmt.Errorf("decode CLI response: %v\n%s", err, out)
	}
	if served.EdgeCut != cli.EdgeCut {
		return fmt.Errorf("edge-cut disagreement: daemon %d vs CLI %d", served.EdgeCut, cli.EdgeCut)
	}
	fmt.Printf("edge-cut agreement: daemon %d == CLI %d (n=%d, k=%d)\n",
		served.EdgeCut, cli.EdgeCut, served.Vertices, k)

	// A second identical POST must hit the cache byte-for-byte.
	resp2, body2, err := post()
	if err != nil {
		return err
	}
	if resp2.Header.Get("X-Cache") != "hit" {
		return fmt.Errorf("second POST X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		return fmt.Errorf("cache hit body differs from cold body")
	}

	// The same graph as binary CSR (docs/WIRE.md) with the options in the
	// query string must land on the SAME cache entry the JSON requests
	// populated — the cache is keyed by graph fingerprint, not request
	// bytes — and return the identical body.
	var binBody bytes.Buffer
	if err := mlpart.WriteBinaryGraph(&binBody, g); err != nil {
		return err
	}
	bresp, err := rc.Post(fmt.Sprintf("%s/v1/partition?k=%d&seed=%d", base, k, seed),
		mlpart.ContentTypeBinaryCSR, binBody.Bytes())
	if err != nil {
		return fmt.Errorf("binary POST /v1/partition: %v", err)
	}
	bbody, err := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if err != nil {
		return err
	}
	if bresp.StatusCode != http.StatusOK {
		return fmt.Errorf("binary POST /v1/partition: status %d: %s", bresp.StatusCode, bbody)
	}
	if bresp.Header.Get("X-Cache") != "hit" {
		return fmt.Errorf("binary POST X-Cache = %q, want hit (JSON and binary clients must share entries)",
			bresp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, bbody) {
		return fmt.Errorf("binary-encoded request body differs from the JSON one")
	}
	fmt.Printf("binary CSR POST: %d bytes (JSON body %d), cache shared across encodings\n",
		binBody.Len(), len(reqBody))

	// /varz must be valid JSON reflecting the traffic.
	vresp, err := http.Get(base + "/varz")
	if err != nil {
		return err
	}
	vdata, _ := io.ReadAll(vresp.Body)
	vresp.Body.Close()
	var v struct {
		Admitted int64 `json:"admitted"`
		Cache    struct {
			Hits int64 `json:"hits"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(vdata, &v); err != nil {
		return fmt.Errorf("/varz decode: %v\n%s", err, vdata)
	}
	if v.Admitted < 2 || v.Cache.Hits < 1 {
		return fmt.Errorf("/varz counters implausible: %s", vdata)
	}

	// Async batch: three partitions of the same graph at different seeds
	// submitted in one POST /v1/jobs/batch, polled to completion through
	// the SDK client, and every edge-cut diffed against the CLI on the
	// same input. Seed 7 also proves the job path shares the sync cache.
	sdk := &service.Client{Base: base, HTTP: rc}
	seeds := []int64{seed, seed + 1, seed + 2}
	entries := make([]mlpart.BatchJob, len(seeds))
	for i, s := range seeds {
		entries[i] = mlpart.BatchJob{Partition: &mlpart.PartitionRequest{
			Graph:   *mlpart.NewWireGraph(g),
			K:       k,
			Options: &mlpart.Options{Seed: s},
		}}
	}
	br, err := sdk.SubmitBatch(context.Background(), entries)
	if err != nil {
		return fmt.Errorf("SubmitBatch: %v", err)
	}
	for i, jr := range br.Jobs {
		if jr.ID == "" {
			return fmt.Errorf("batch entry %d rejected: %s", i, jr.Error)
		}
		res, err := sdk.WaitJob(context.Background(), jr.ID)
		if err != nil {
			return fmt.Errorf("WaitJob %s: %v", jr.ID, err)
		}
		if res.State != mlpart.JobStateDone {
			return fmt.Errorf("job %s finished %q: %s", jr.ID, res.State, res.Body)
		}
		var jobResp mlpart.PartitionResponse
		if err := json.Unmarshal(res.Body, &jobResp); err != nil {
			return fmt.Errorf("decode job %s result: %v", jr.ID, err)
		}
		cliOut, err := exec.Command(mlpartBin, "-json", "-k", fmt.Sprint(k),
			"-seed", fmt.Sprint(seeds[i]), graphFile).Output()
		if err != nil {
			return fmt.Errorf("mlpart CLI (seed %d): %v", seeds[i], err)
		}
		var cliResp mlpart.PartitionResponse
		if err := json.Unmarshal(cliOut, &cliResp); err != nil {
			return fmt.Errorf("decode CLI response (seed %d): %v", seeds[i], err)
		}
		if jobResp.EdgeCut != cliResp.EdgeCut {
			return fmt.Errorf("seed %d: async job edge-cut %d != CLI %d",
				seeds[i], jobResp.EdgeCut, cliResp.EdgeCut)
		}
	}
	fmt.Printf("async batch: %d jobs polled to done, edge-cuts match CLI\n", len(seeds))

	// Graceful shutdown choreography: after SIGTERM the daemon must flip
	// /readyz to 503 (traffic should move elsewhere) while /healthz stays
	// 200 (the process is alive, don't restart it), hold the listener open
	// for -ready-grace, then drain and exit 0. The probes below use the
	// plain http client: a 503 here is the expected answer, not something
	// to retry.
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	probe := func(path string) (int, error) {
		resp, err := http.Get(base + path)
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	var readyCode int
	deadline := time.Now().Add(readyGrace)
	for time.Now().Before(deadline) {
		readyCode, err = probe("/readyz")
		if err != nil {
			return fmt.Errorf("/readyz during drain window: %v", err)
		}
		if readyCode == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if readyCode != http.StatusServiceUnavailable {
		return fmt.Errorf("/readyz = %d during drain window, want 503", readyCode)
	}
	liveCode, err := probe("/healthz")
	if err != nil {
		return fmt.Errorf("/healthz during drain window: %v", err)
	}
	if liveCode != http.StatusOK {
		return fmt.Errorf("/healthz = %d during drain window, want 200 (liveness must outlive readiness)", liveCode)
	}
	fmt.Printf("drain window: /readyz 503, /healthz 200\n")

	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(15*time.Second + readyGrace):
		return fmt.Errorf("daemon did not drain within %s of SIGTERM", 15*time.Second+readyGrace)
	}

	if err := drainWaitsForJobs(mlserved, reqBody); err != nil {
		return err
	}
	return sessionsSurviveKill(mlserved, g)
}

// drainWaitsForJobs starts a second daemon with a 2s delay fault wired
// into the job execution site, submits an async job, waits for it to
// reach "running", then sends SIGTERM. The daemon must NOT exit until
// the job finishes — its drain path logs "jobs drained" after waiting on
// the job workers — and must still exit 0 well inside the drain budget.
func drainWaitsForJobs(mlserved string, reqBody []byte) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()

	const jobDelay = 2 * time.Second
	var logBuf bytes.Buffer
	daemon := exec.Command(mlserved, "-addr", addr, "-workers", "2", "-drain", "15s",
		"-faults", fmt.Sprintf("jobs/run=delay:%s@*", jobDelay))
	daemon.Stderr = io.MultiWriter(os.Stderr, &logBuf)
	if err := daemon.Start(); err != nil {
		return err
	}
	defer daemon.Process.Kill()
	base := "http://" + addr

	rc := &service.RetryClient{
		MaxAttempts: 40,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
	}
	resp, err := rc.Post(base+"/v1/jobs?type=partition", "application/json", reqBody)
	if err != nil {
		return fmt.Errorf("job daemon submit: %v", err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("job daemon submit: status %d: %s", resp.StatusCode, data)
	}
	var jr mlpart.JobResponse
	if err := json.Unmarshal(data, &jr); err != nil {
		return fmt.Errorf("job daemon submit decode: %v", err)
	}

	// Wait until the job is actually occupying a worker slot (the delay
	// fault holds it there for 2s), so SIGTERM lands mid-job.
	running := false
	for deadline := time.Now().Add(jobDelay); time.Now().Before(deadline); {
		resp, err := http.Get(base + "/v1/jobs/" + jr.ID)
		if err != nil {
			return err
		}
		pdata, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var poll mlpart.JobResponse
		if err := json.Unmarshal(pdata, &poll); err != nil {
			return fmt.Errorf("poll decode: %v\n%s", err, pdata)
		}
		if poll.State == mlpart.JobStateRunning {
			running = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !running {
		return fmt.Errorf("job %s never reached running before the delay elapsed", jr.ID)
	}

	sigAt := time.Now()
	if err := daemon.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- daemon.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("job daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		return fmt.Errorf("job daemon did not drain within 20s of SIGTERM")
	}
	waited := time.Since(sigAt)
	if waited < jobDelay/4 {
		return fmt.Errorf("daemon exited %s after SIGTERM — too fast to have waited for the %s job", waited, jobDelay)
	}
	if !strings.Contains(logBuf.String(), "jobs drained") {
		return fmt.Errorf("daemon log missing %q — drain did not wait on job workers:\n%s", "jobs drained", logBuf.String())
	}
	fmt.Printf("drain waited %s for the running job before exit (jobs drained logged)\n", waited.Round(10*time.Millisecond))
	return nil
}

// varzAdmitted reads the daemon's /varz admitted counter.
func varzAdmitted(rc *service.RetryClient, base string) (int64, error) {
	resp, err := rc.Get(base + "/varz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var v struct {
		Admitted int64 `json:"admitted"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return 0, fmt.Errorf("/varz decode: %v", err)
	}
	return v.Admitted, nil
}

// sessionsSurviveKill is the crash-recovery drill for resident graph
// sessions: create a durable session, stream delta batches, force a full
// repartition, then SIGKILL the daemon — no drain, no snapshot flush —
// and restart it on the same -state-dir. The recovered session must
// report the same sequence number and edge-cut, and its partition vector
// must be byte-identical: recovery replays the delta log and re-runs
// each repair at its recorded tier with the session seed, so any
// divergence is a determinism bug, not noise.
func sessionsSurviveKill(mlserved string, g *mlpart.Graph) error {
	stateDir, err := os.MkdirTemp("", "mlsmoke-state")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateDir)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	base := "http://" + addr

	startDaemon := func() (*exec.Cmd, error) {
		d := exec.Command(mlserved, "-addr", addr, "-workers", "2", "-state-dir", stateDir)
		d.Stderr = os.Stderr
		if err := d.Start(); err != nil {
			return nil, err
		}
		return d, nil
	}
	rc := &service.RetryClient{
		MaxAttempts: 40,
		BaseDelay:   50 * time.Millisecond,
		MaxDelay:    400 * time.Millisecond,
	}
	sdk := &service.Client{Base: base, HTTP: rc}
	ctx := context.Background()

	daemon, err := startDaemon()
	if err != nil {
		return err
	}
	defer daemon.Process.Kill()

	// Session writes are admitted like compute requests: /varz admitted
	// must rise by one per create, delta batch and repair.
	admittedBefore, err := varzAdmitted(rc, base)
	if err != nil {
		return err
	}
	st, err := sdk.CreateSession(ctx, &mlpart.SessionCreateRequest{
		Graph: *mlpart.NewWireGraph(g), K: 4, Seed: 11,
	})
	if err != nil {
		return fmt.Errorf("CreateSession: %v", err)
	}
	// Stream a few delta batches: edge weight bumps on existing edges
	// plus vertex reweights, enough to leave real WAL records behind. The
	// first goes out raw, so that its reply's headers can be checked: a
	// delta reply carries its compute time like every computed reply.
	n := st.Vertices
	const batches = 4
	for batch := 0; batch < batches; batch++ {
		ops := []mlpart.DeltaOp{
			{Op: mlpart.DeltaOpVwgt, U: (batch * 13) % n, W: 2 + batch},
			{Op: mlpart.DeltaOpVwgt, U: (batch*13 + 7) % n, W: 1 + batch},
		}
		if batch > 0 {
			if _, err := sdk.ApplyDeltas(ctx, st.ID, ops); err != nil {
				return fmt.Errorf("ApplyDeltas %d: %v", batch, err)
			}
			continue
		}
		body, _ := json.Marshal(mlpart.SessionDeltaRequest{Ops: ops})
		resp, err := rc.Post(base+"/v1/graphs/"+st.ID+"/edges", mlpart.ContentTypeJSON, body)
		if err != nil {
			return fmt.Errorf("delta %d: %v", batch, err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Compute-Ns") == "" {
			return fmt.Errorf("delta %d: status %d, X-Compute-Ns %q; want 200 with a compute time: %s",
				batch, resp.StatusCode, resp.Header.Get("X-Compute-Ns"), data)
		}
	}
	if _, err := sdk.RepairSession(ctx, st.ID, "full"); err != nil {
		return fmt.Errorf("RepairSession: %v", err)
	}
	admittedAfter, err := varzAdmitted(rc, base)
	if err != nil {
		return err
	}
	if writes := int64(1 + batches + 1); admittedAfter-admittedBefore != writes {
		return fmt.Errorf("/varz admitted rose by %d over %d session writes, want one each",
			admittedAfter-admittedBefore, writes)
	}
	want, err := sdk.GetSession(ctx, st.ID, true)
	if err != nil {
		return fmt.Errorf("GetSession pre-kill: %v", err)
	}

	// SIGKILL: no drain handler runs, no final snapshot is written. The
	// delta log is all the second daemon gets.
	if err := daemon.Process.Kill(); err != nil {
		return err
	}
	daemon.Wait()

	daemon2, err := startDaemon()
	if err != nil {
		return err
	}
	defer daemon2.Process.Kill()
	got, err := sdk.GetSession(ctx, st.ID, true)
	if err != nil {
		return fmt.Errorf("GetSession post-restart: %v", err)
	}
	if !got.Recovered {
		return fmt.Errorf("recovered session not flagged recovered: %+v", got)
	}
	if got.Degraded {
		return fmt.Errorf("recovery degraded — the replayed cuts did not verify")
	}
	if got.Seq != want.Seq || got.EdgeCut != want.EdgeCut {
		return fmt.Errorf("recovery mismatch: seq %d/cut %d, want seq %d/cut %d",
			got.Seq, got.EdgeCut, want.Seq, want.EdgeCut)
	}
	if len(got.Where) != len(want.Where) {
		return fmt.Errorf("recovered partition has %d entries, want %d", len(got.Where), len(want.Where))
	}
	for i := range want.Where {
		if got.Where[i] != want.Where[i] {
			return fmt.Errorf("recovered partition diverges at vertex %d: %d != %d — recovery is not byte-identical",
				i, got.Where[i], want.Where[i])
		}
	}
	fmt.Printf("session kill-and-recover: %d vertices, seq %d, cut %d byte-identical after SIGKILL\n",
		got.Vertices, got.Seq, got.EdgeCut)

	// Clean shutdown of the recovery daemon.
	if err := daemon2.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- daemon2.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("recovery daemon exited non-zero after SIGTERM: %v", err)
		}
	case <-time.After(20 * time.Second):
		return fmt.Errorf("recovery daemon did not drain within 20s of SIGTERM")
	}
	return nil
}
