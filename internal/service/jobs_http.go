package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"mlpart"
	"mlpart/internal/faults"
	"mlpart/internal/jobs"
	"mlpart/internal/trace"
)

// The asynchronous job API. A submission is the same decoded, validated
// compute request the synchronous endpoints take — the identical codec
// runs, the identical job interface executes on the identical worker pool
// — but instead of holding the HTTP connection open for the result, the
// daemon records the job, replies 202 with an id, and lets the client
// poll. Because both paths share decode, execution, error mapping and
// encoding, a finished job's stored body is byte-for-byte what the
// synchronous endpoint would have sent.
//
//	POST   /v1/jobs?type=partition|order|repartition   submit (JSON or csrb body)
//	POST   /v1/jobs/batch                              submit many (JSON only)
//	GET    /v1/jobs/{id}                               poll / fetch result
//	DELETE /v1/jobs/{id}                               cancel
//
// GET's contract: while the job is active the reply is a JobResponse
// with a retry_after_ms hint; once it is done or failed the reply IS the
// stored wire result (or wire error) under its original status code,
// tagged with an X-Job-State header; a canceled job stays a JobResponse.
// Jobs bypass the admission queue — the store's capacity is their
// admission control — but wait for the same worker slots as synchronous
// requests, so the pool's concurrency bound holds across both APIs.

// jobPollHintMS is the polling interval hint sent while a job is active.
const jobPollHintMS = 100

// jobWire renders a store snapshot as the wire JobResponse.
func jobWire(snap jobs.Snapshot) mlpart.JobResponse {
	r := mlpart.JobResponse{
		Kind:          mlpart.WireKindJob,
		SchemaVersion: mlpart.SchemaVersion,
		ID:            snap.ID,
		Type:          snap.Type,
		State:         string(snap.State),
		Error:         snap.Error,
	}
	if !snap.State.Terminal() {
		r.RetryAfterMS = jobPollHintMS
	}
	return r
}

// serveJobSubmit is POST /v1/jobs: decode and validate up front (exactly
// like the synchronous path, including the binary CSR encoding), then
// register and return 202 immediately.
func (s *Server) serveJobSubmit(w http.ResponseWriter, r *http.Request) {
	// A draining daemon refuses new jobs: accepted jobs outlive their
	// submission request, so anything admitted now would extend shutdown.
	if !allow(w, r, http.MethodPost) || s.refuseDraining(w, "new jobs") {
		return
	}
	typ := r.URL.Query().Get("type")
	if typ == "" {
		typ = mlpart.JobTypePartition
	}
	c, ok := codecs[typ]
	if !ok {
		s.met.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, "unknown job type %q (want %q, %q or %q)",
			typ, mlpart.JobTypePartition, mlpart.JobTypeOrder, mlpart.JobTypeRepartition)
		return
	}
	isBinary, ok := s.negotiate(w, r)
	if !ok {
		return
	}
	j, ok := decodeBody(s, w, r, isBinary, c.json, c.binary)
	if !ok {
		return
	}
	resp, err := s.submitDecoded(j, typ, r.URL.Query().Get("trace") == "1")
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"job store full (%d records); retry later", s.jobs.Capacity())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+resp.ID)
	writeJSON(w, http.StatusAccepted, resp)
}

// serveJobBatch is POST /v1/jobs/batch: many submissions in one round
// trip, one HTTP request's ingest overhead. Entries are admitted
// independently — a shed or invalid entry carries its error in its reply
// slot without failing the rest of the batch.
func (s *Server) serveJobBatch(w http.ResponseWriter, r *http.Request) {
	if !allow(w, r, http.MethodPost) || s.refuseDraining(w, "new jobs") {
		return
	}
	if isBinary, err := binaryRequest(r); err != nil || isBinary {
		s.met.unsupportedMedia.Add(1)
		writeError(w, http.StatusUnsupportedMediaType,
			"batch submissions are JSON only (want %q)", mlpart.ContentTypeJSON)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req mlpart.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.met.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if len(req.Jobs) == 0 {
		s.met.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, "empty batch")
		return
	}
	// The cap is enforced before any entry is decoded: an unbounded batch
	// must not buy graph decoding (and job-store slots) ahead of every
	// other client.
	if s.cfg.MaxBatchJobs > 0 && len(req.Jobs) > s.cfg.MaxBatchJobs {
		s.met.jobsBatchOversize.Add(1)
		writeError(w, http.StatusRequestEntityTooLarge,
			"batch of %d entries exceeds the %d-entry limit; split the submission",
			len(req.Jobs), s.cfg.MaxBatchJobs)
		return
	}
	resp := mlpart.BatchResponse{
		Kind:          mlpart.WireKindBatch,
		SchemaVersion: mlpart.SchemaVersion,
		Jobs:          make([]mlpart.JobResponse, len(req.Jobs)),
	}
	for i, bj := range req.Jobs {
		j, typ, err := buildBatchJob(bj)
		if err != nil {
			s.met.badReqs.Add(1)
			resp.Jobs[i] = mlpart.JobResponse{
				Kind:          mlpart.WireKindJob,
				SchemaVersion: mlpart.SchemaVersion,
				Type:          typ,
				Error:         err.Error(),
			}
			continue
		}
		jr, err := s.submitDecoded(j, typ, false)
		if err != nil {
			resp.Jobs[i] = mlpart.JobResponse{
				Kind:          mlpart.WireKindJob,
				SchemaVersion: mlpart.SchemaVersion,
				Type:          typ,
				Error:         "job store full",
			}
			continue
		}
		resp.Jobs[i] = jr
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// buildBatchJob decodes and validates one batch entry through the codec
// table the endpoints use.
func buildBatchJob(bj mlpart.BatchJob) (job, string, error) {
	typ, set := bj.Type, 0
	for _, name := range jobTypes {
		if codecs[name].entry(bj) != nil {
			set++
			if typ == "" {
				// Infer the type from the populated field; an explicit
				// mismatched "type" is still an error below.
				typ = name
			}
		}
	}
	if typ == "" {
		typ = mlpart.JobTypePartition
	}
	if set != 1 {
		return nil, typ, errors.New("batch entry must set exactly one of partition, order, repartition")
	}
	c, ok := codecs[typ]
	if !ok {
		return nil, typ, errors.New("unknown job type " + strings.TrimSpace(typ))
	}
	build := c.entry(bj)
	if build == nil {
		return nil, typ, fmt.Errorf("type %q requires the %s field", typ, typ)
	}
	j, err := build()
	return j, typ, err
}

// submitDecoded runs the common submission flow for one decoded compute
// request: coalesce onto an identical active job, short-circuit through
// the result cache, shed when the store is full, otherwise record the
// job and spawn its runner. The returned error is jobs.ErrFull or nil.
func (s *Server) submitDecoded(j job, typ string, wantTrace bool) (mlpart.JobResponse, error) {
	// Tracing makes the execution request-specific: no coalescing with
	// (or into) untraced submissions, no cache in either direction.
	key := cacheKey(j, wantTrace)
	jb, fresh, err := s.jobs.Submit(typ, key)
	if err != nil {
		s.met.jobsShed.Add(1)
		return mlpart.JobResponse{}, err
	}
	if !fresh {
		s.met.jobsCoalesced.Add(1)
		resp := jobWire(jb.Snapshot())
		resp.Coalesced = true
		return resp, nil
	}
	s.met.jobsSubmitted.Add(1)
	if pj, ok := j.(presetJob); ok {
		s.met.countPreset(pj.preset())
	}
	// An already cached result completes the job at submission time: the
	// client still polls, but the first GET replays the body.
	if body, ok := s.cached(key); ok {
		s.jobs.Start(jb)
		s.jobs.Finish(jb, jobs.StateDone, jobs.Outcome{Code: http.StatusOK, Body: body}, "")
		return jobWire(jb.Snapshot()), nil
	}
	s.jobWG.Add(1)
	go func() {
		defer s.jobWG.Done()
		s.runJob(jb, j, key, wantTrace)
	}()
	return jobWire(jb.Snapshot()), nil
}

// serveJobByID is GET/DELETE /v1/jobs/{id}.
func (s *Server) serveJobByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.ContainsRune(id, '/') {
		writeError(w, http.StatusNotFound, "no such resource %q", r.URL.Path)
		return
	}
	if !allow(w, r, http.MethodGet, http.MethodDelete) {
		return
	}
	switch r.Method {
	case http.MethodGet:
		jb, ok := s.jobs.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown job %q (expired or never submitted)", id)
			return
		}
		snap := jb.Snapshot()
		switch snap.State {
		case jobs.StateDone, jobs.StateFailed:
			// The stored reply IS the synchronous endpoint's reply —
			// status code and body bytes alike.
			w.Header().Set("X-Job-State", string(snap.State))
			writeBody(w, snap.Outcome.Code, snap.Outcome.Body)
		case jobs.StateCanceled:
			w.Header().Set("X-Job-State", string(snap.State))
			writeJSON(w, http.StatusOK, jobWire(snap))
		default:
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusOK, jobWire(snap))
		}
	case http.MethodDelete:
		if _, ok := s.jobs.Cancel(id); !ok {
			writeError(w, http.StatusNotFound, "unknown job %q (expired or never submitted)", id)
			return
		}
		jb, ok := s.jobs.Get(id)
		if !ok {
			// Evicted between Cancel and Get; report the cancellation.
			writeJSON(w, http.StatusOK, mlpart.JobResponse{
				Kind:          mlpart.WireKindJob,
				SchemaVersion: mlpart.SchemaVersion,
				ID:            id,
				State:         mlpart.JobStateCanceled,
			})
			return
		}
		writeJSON(w, http.StatusOK, jobWire(jb.Snapshot()))
	}
}

// runJob is one job's runner goroutine: wait for a worker slot, execute
// the job exactly as the synchronous path does, store the outcome. The
// job's context — canceled by DELETE — gates both the wait and the
// computation.
func (s *Server) runJob(jb *jobs.Job, j job, key string, wantTrace bool) {
	if err := s.pool.acquire(jb.Context()); err != nil {
		// Canceled while waiting (the job context carries no deadline, so
		// only Cancel fires it); the store already flipped the state.
		return
	}
	defer s.pool.release()
	if !s.jobs.Start(jb) {
		return // canceled between slot acquisition and start
	}
	snap := jb.Snapshot()
	queueWait := snap.Started.Sub(snap.Submitted)
	s.met.jobQueueLatency.observe(queueWait)

	// The compute deadline starts when execution starts, not at
	// submission: a job that waited out a long queue still gets its full
	// budget, and the TTL — not the deadline — bounds how long the record
	// lives.
	ctx, cancel := s.deadline(jb.Context(), j)
	defer cancel()
	var col *mlpart.TraceCollector
	if wantTrace {
		col = &mlpart.TraceCollector{}
		col.Event(mlpart.TraceEvent{
			Kind: trace.KindJob, Phase: "started", Job: jb.ID(), ElapsedNS: queueWait.Nanoseconds(),
		})
	}
	o := s.execute(ctx, j, key, faults.SiteJobRun, col, jb.ID())
	s.met.jobRunLatency.observe(o.compute)
	if o.canceled {
		return // DELETE flipped the state already
	}
	state := jobs.StateDone
	if o.Code != http.StatusOK {
		state = jobs.StateFailed
	}
	s.jobs.Finish(jb, state, o.Outcome, o.reason)
}
