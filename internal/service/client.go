package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"mlpart"
)

// RetryClient wraps an http.Client with bounded retries for talking to
// this daemon (or any service with the same shedding discipline):
// transport errors and the transient statuses 429, 502, 503 and 504 are
// retried with full-jitter exponential backoff, honoring a Retry-After
// header as the floor of the next delay; every other response returns
// immediately. Full jitter (a uniform draw from [0, ceiling) rather than
// the ceiling itself) keeps a fleet of shed clients from re-arriving in
// lockstep and re-saturating the queue they were just shed from.
//
// The daemon's endpoints are deterministic and idempotent, so replaying a
// request is always safe; do not use this client against services where a
// POST has side effects that must happen at most once.
//
// The zero value is usable. Retrying a request with a body requires
// req.GetBody, which http.NewRequest sets for the common in-memory body
// types (bytes.Reader, bytes.Buffer, strings.Reader).
type RetryClient struct {
	// Client performs the individual attempts; nil means
	// http.DefaultClient.
	Client *http.Client
	// MaxAttempts is the total number of tries including the first
	// (0 means 4).
	MaxAttempts int
	// BaseDelay is the backoff ceiling before the first retry; it doubles
	// per retry up to MaxDelay (0 means 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the backoff ceiling (0 means 2s).
	MaxDelay time.Duration
	// Rand supplies the jitter; nil seeds one from the clock on first
	// use. Fix it for deterministic tests.
	Rand *rand.Rand
	// Sleep waits between attempts; nil means time.Sleep. Tests stub it
	// to run instantly and record the chosen delays.
	Sleep func(time.Duration)

	mu sync.Mutex // guards Rand
}

// retryableStatus reports whether a status code signals a transient
// condition worth retrying: shed (429), or a dying/restarting backend
// behind a proxy (502, 503, 504).
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Do performs req with retries. It returns the first non-retryable
// response, or — once attempts are exhausted — the last response (body
// unread) or transport error as-is, so callers inspect the final outcome
// exactly as they would an http.Client's.
func (c *RetryClient) Do(req *http.Request) (*http.Response, error) {
	hc := c.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	attempts := c.MaxAttempts
	if attempts <= 0 {
		attempts = 4
	}
	sleep := c.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	for attempt := 1; ; attempt++ {
		if attempt > 1 && req.Body != nil {
			if req.GetBody == nil {
				// Cannot replay the body; the previous outcome stands.
				return hc.Do(req)
			}
			body, err := req.GetBody()
			if err != nil {
				return nil, err
			}
			req.Body = body
		}
		resp, err := hc.Do(req)
		if err == nil && !retryableStatus(resp.StatusCode) {
			return resp, nil
		}
		if attempt >= attempts {
			return resp, err
		}
		delay := c.jitter(attempt)
		if err == nil {
			if ra := retryAfter(resp.Header.Get("Retry-After")); ra > delay {
				delay = ra
			}
			// Drain a bounded amount so the connection can be reused.
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			resp.Body.Close()
		}
		sleep(delay)
	}
}

// Get issues a GET with retries.
func (c *RetryClient) Get(url string) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	return c.Do(req)
}

// Post issues a POST with retries; body is held in memory so every
// attempt replays it identically.
func (c *RetryClient) Post(url, contentType string, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	return c.Do(req)
}

// jitter draws a full-jitter delay: uniform in [0, ceiling) where the
// ceiling is BaseDelay doubled per completed attempt, capped at MaxDelay.
func (c *RetryClient) jitter(attempt int) time.Duration {
	base := c.BaseDelay
	if base <= 0 {
		base = 100 * time.Millisecond
	}
	maxd := c.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	ceiling := base
	for i := 1; i < attempt && ceiling < maxd; i++ {
		ceiling *= 2
	}
	if ceiling > maxd {
		ceiling = maxd
	}
	c.mu.Lock()
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	d := time.Duration(c.Rand.Float64() * float64(ceiling))
	c.mu.Unlock()
	return d
}

// Client is the SDK for a daemon: it speaks the asynchronous job API —
// submit, poll to completion, cancel, batch — over a RetryClient, with
// jittered polling that honors the server's Retry-After hints. The zero
// value plus a Base URL is usable:
//
//	c := &service.Client{Base: "http://localhost:8080"}
//	jr, err := c.SubmitJob(ctx, mlpart.JobTypePartition, &mlpart.PartitionRequest{...})
//	res, err := c.WaitJob(ctx, jr.ID)   // res.Body is the PartitionResponse bytes
type Client struct {
	// Base is the daemon's base URL ("http://host:port"), no trailing
	// path.
	Base string
	// HTTP performs the requests; nil means a zero RetryClient (default
	// backoff over http.DefaultClient). Submissions go through its retry
	// loop (replayable bodies, 429/503 backoff); polls do not — a poll is
	// its own retry loop.
	HTTP *RetryClient
	// PollInterval is the poll delay when the server sends no hint
	// (0 means 100ms).
	PollInterval time.Duration
	// MaxPollInterval caps the server's hint (0 means 5s).
	MaxPollInterval time.Duration
	// Rand supplies the poll jitter; nil seeds one from the clock on
	// first use. Fix it for deterministic tests.
	Rand *rand.Rand

	mu sync.Mutex // guards Rand
}

// JobResult is a finished job as observed by WaitJob.
type JobResult struct {
	ID string
	// State is mlpart.JobStateDone, JobStateFailed or JobStateCanceled.
	State string
	// Status is the HTTP status of the replayed wire reply (200 for done,
	// the original error status for failed, 0 for canceled).
	Status int
	// Body is the raw wire body: a result object for done jobs, an
	// ErrorResponse for failed ones, nil for canceled.
	Body []byte
}

func (c *Client) retry() *RetryClient {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &RetryClient{}
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// maxReplyBytes caps how much of a daemon reply the SDK reads.
const maxReplyBytes = 64 << 20

// readReply reads and closes resp's body, then decodes it into a new T
// with decodeReply.
func readReply[T any](resp *http.Response, want int) (*T, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	out := new(T)
	if err := decodeReply(resp, body, want, out); err != nil {
		return nil, err
	}
	return out, nil
}

// decodeReply checks a daemon reply's status and unmarshals its body into
// out; a 204 No Content reply has no body to decode. Any status but want
// becomes an error that carries the wire ErrorResponse text when there is
// one.
func decodeReply(resp *http.Response, body []byte, want int, out any) error {
	if resp.StatusCode != want {
		var we mlpart.ErrorResponse
		if json.Unmarshal(body, &we) == nil && we.Error != "" {
			return fmt.Errorf("%s: %s", resp.Status, we.Error)
		}
		return fmt.Errorf("unexpected status %s", resp.Status)
	}
	if resp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("bad reply: %v", err)
	}
	return nil
}

// postJSON marshals v and POSTs it through the retry loop with a
// replayable body.
func (c *Client) postJSON(ctx context.Context, url string, v any) (*http.Response, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", mlpart.ContentTypeJSON)
	return c.retry().Do(req)
}

// SubmitJob submits one asynchronous job. typ is one of the
// mlpart.JobType constants and req the matching request object
// (*mlpart.PartitionRequest, *mlpart.OrderRequest or
// *mlpart.RepartitionRequest). It returns the accepted job's
// JobResponse; poll it with WaitJob.
func (c *Client) SubmitJob(ctx context.Context, typ string, req any) (*mlpart.JobResponse, error) {
	url := c.url("/v1/jobs")
	if typ != "" {
		url += "?type=" + typ
	}
	resp, err := c.postJSON(ctx, url, req)
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.JobResponse](resp, http.StatusAccepted)
}

// SubmitBatch submits many jobs in one call. The returned
// BatchResponse has one entry per submission in request order; entries
// that were shed or invalid carry their error in place.
func (c *Client) SubmitBatch(ctx context.Context, entries []mlpart.BatchJob) (*mlpart.BatchResponse, error) {
	resp, err := c.postJSON(ctx, c.url("/v1/jobs/batch"), mlpart.BatchRequest{Jobs: entries})
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.BatchResponse](resp, http.StatusAccepted)
}

// CancelJob cancels the job (DELETE). The returned JobResponse reports
// the job's resulting state — "canceled" if the cancellation landed, a
// terminal state if the job had already finished.
func (c *Client) CancelJob(ctx context.Context, id string) (*mlpart.JobResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url("/v1/jobs/"+id), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.retry().Do(req)
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.JobResponse](resp, http.StatusOK)
}

// WaitJob polls the job until it reaches a terminal state, honoring the
// server's retry hints with jitter so a fleet of waiting clients does
// not poll in lockstep. Failed jobs are returned as a JobResult (State
// "failed", Body the wire error), not a Go error: transport problems are
// errors, job outcomes are results.
func (c *Client) WaitJob(ctx context.Context, id string) (*JobResult, error) {
	// Polls bypass the RetryClient: a failed job replays its stored
	// reply under the original error status (e.g. 504), which the retry
	// loop would misread as a transient condition and hammer.
	hc := c.retry().Client
	if hc == nil {
		hc = http.DefaultClient
	}
	url := c.url("/v1/jobs/" + id)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if st := resp.Header.Get("X-Job-State"); st != "" {
			if st == mlpart.JobStateCanceled {
				return &JobResult{ID: id, State: st}, nil
			}
			return &JobResult{ID: id, State: st, Status: resp.StatusCode, Body: body}, nil
		}
		hint := c.PollInterval
		if hint <= 0 {
			hint = 100 * time.Millisecond
		}
		if retryableStatus(resp.StatusCode) {
			if ra := retryAfter(resp.Header.Get("Retry-After")); ra > hint {
				hint = ra
			}
		} else {
			var jr mlpart.JobResponse
			if err := decodeReply(resp, body, http.StatusOK, &jr); err != nil {
				return nil, err
			}
			if jr.RetryAfterMS > 0 {
				hint = time.Duration(jr.RetryAfterMS) * time.Millisecond
			}
		}
		if err := c.sleepJittered(ctx, hint); err != nil {
			return nil, err
		}
	}
}

// sleepJittered waits the hint plus up to half again as much jitter,
// respecting the hint as a floor (Retry-After semantics) and
// MaxPollInterval as the hint's ceiling.
func (c *Client) sleepJittered(ctx context.Context, hint time.Duration) error {
	maxp := c.MaxPollInterval
	if maxp <= 0 {
		maxp = 5 * time.Second
	}
	if hint > maxp {
		hint = maxp
	}
	c.mu.Lock()
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	d := hint + time.Duration(c.Rand.Float64()*float64(hint)/2)
	c.mu.Unlock()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryAfter parses a Retry-After header: delay-seconds or an HTTP date.
func retryAfter(v string) time.Duration {
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

// Capabilities fetches the server's supported algorithm names from
// GET /v1/capabilities: coarsening schemes (with family metadata), initial
// partitioners, refinements, presets, orderings and workloads. The document
// is static for a given server build, so callers may fetch once and reuse.
func (c *Client) Capabilities(ctx context.Context) (*mlpart.CapabilitiesResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/capabilities"), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.retry().Do(req)
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.CapabilitiesResponse](resp, http.StatusOK)
}

// --- resident graph sessions ---

// CreateSession registers a resident graph session and returns its
// state; the session id is the graph's content fingerprint, so creating
// the same graph twice fails with a 409 error.
func (c *Client) CreateSession(ctx context.Context, req *mlpart.SessionCreateRequest) (*mlpart.SessionResponse, error) {
	resp, err := c.postJSON(ctx, c.url("/v1/graphs"), req)
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.SessionResponse](resp, http.StatusCreated)
}

// ApplyDeltas applies one atomic batch of graph mutations to a session.
// The batch either applies in full (the returned state reflects it and
// the triggered repair) or not at all.
func (c *Client) ApplyDeltas(ctx context.Context, id string, ops []mlpart.DeltaOp) (*mlpart.SessionResponse, error) {
	resp, err := c.postJSON(ctx, c.url("/v1/graphs/"+id+"/edges"), mlpart.SessionDeltaRequest{Ops: ops})
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.SessionResponse](resp, http.StatusOK)
}

// RepairSession runs an explicit repartition of a session. Mode is
// "auto" (or empty) for the drift ladder's choice, or "boundary",
// "full", "vcycle" to force a tier. The reply includes the partition
// vector.
func (c *Client) RepairSession(ctx context.Context, id, mode string) (*mlpart.SessionResponse, error) {
	resp, err := c.postJSON(ctx, c.url("/v1/graphs/"+id+"/repartition"), mlpart.SessionRepairRequest{Mode: mode})
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.SessionResponse](resp, http.StatusOK)
}

// GetSession fetches a session's state; withWhere includes the
// partition vector.
func (c *Client) GetSession(ctx context.Context, id string, withWhere bool) (*mlpart.SessionResponse, error) {
	url := c.url("/v1/graphs/" + id)
	if withWhere {
		url += "?where=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.retry().Do(req)
	if err != nil {
		return nil, err
	}
	return readReply[mlpart.SessionResponse](resp, http.StatusOK)
}

// DeleteSession drops a session from memory and disk.
func (c *Client) DeleteSession(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.url("/v1/graphs/"+id), nil)
	if err != nil {
		return err
	}
	resp, err := c.retry().Do(req)
	if err != nil {
		return err
	}
	_, err = readReply[struct{}](resp, http.StatusNoContent)
	return err
}
