package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"mime"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"mlpart"
	"mlpart/internal/errlist"
	"mlpart/internal/faults"
	"mlpart/internal/jobs"
	"mlpart/internal/sessions"
	"mlpart/internal/trace"
)

// Endpoint names as they appear in /varz: each compute endpoint is named
// after its job type.
const (
	epPartition   = mlpart.JobTypePartition
	epOrder       = mlpart.JobTypeOrder
	epRepartition = mlpart.JobTypeRepartition
)

// job is one decoded, validated compute request.
type job interface {
	// key returns the result-cache key.
	key() string
	// timeoutMS is the client's requested budget (0 = server default).
	timeoutMS() int64
	// run computes the response object. tr and inj may be nil;
	// implementations must honor ctx (directly or via the engine's
	// level-boundary checks) and thread inj into the computation.
	run(ctx context.Context, tr mlpart.Tracer, inj *mlpart.FaultInjector) (any, error)
}

// presetJob is implemented by jobs that carry a quality preset (see
// mlpart.Options.Preset); every accepted request is counted under its
// preset in /varz.
type presetJob interface{ preset() string }

// codec is one job type's request decoders: a JSON body, a binary CSR
// body whose other fields arrive as URL query parameters, and a batch
// entry.
type codec struct {
	json   func(data []byte) (job, error)
	binary func(data []byte, q url.Values) (job, error)
	// entry returns the builder of a batch entry's job, or nil when the
	// entry leaves this type's field unset.
	entry func(bj mlpart.BatchJob) func() (job, error)
}

// requestCodec builds the codec of request type R. JSON bodies and batch
// entries share one path: the request's wire graph (graphOf) is
// converted and the type's constructor (build) validates the rest. A
// binary request decodes through decodeBinary with body.
func requestCodec[R any](field func(mlpart.BatchJob) *R, graphOf func(*R) *mlpart.WireGraph,
	build func(R, *mlpart.Graph) (job, error), body func(data []byte, req *R) (*mlpart.Graph, error)) codec {
	fromRequest := func(req *R) (job, error) {
		g, err := graphOf(req).ToGraph()
		if err != nil {
			return nil, fmt.Errorf("bad graph: %v", err)
		}
		return build(*req, g)
	}
	return codec{
		json: func(data []byte) (job, error) {
			req, err := decodeJSON(data, graphOf)
			if err != nil {
				return nil, fmt.Errorf("bad request body: %v", err)
			}
			return fromRequest(&req)
		},
		binary: func(data []byte, q url.Values) (job, error) {
			req, g, err := decodeBinary(data, q, body)
			if err != nil {
				return nil, err
			}
			return build(req, g)
		},
		entry: func(bj mlpart.BatchJob) func() (job, error) {
			req := field(bj)
			if req == nil {
				return nil
			}
			return func() (job, error) { return fromRequest(req) }
		},
	}
}

// jobTypes lists the compute job types in the order a batch entry's type
// is inferred from its populated field.
var jobTypes = []string{mlpart.JobTypePartition, mlpart.JobTypeOrder, mlpart.JobTypeRepartition}

// codecs maps each job type to its codec; the synchronous endpoints,
// POST /v1/jobs and batch entries all decode through it.
var codecs = map[string]codec{
	mlpart.JobTypePartition: requestCodec(
		func(bj mlpart.BatchJob) *mlpart.PartitionRequest { return bj.Partition },
		func(r *mlpart.PartitionRequest) *mlpart.WireGraph { return &r.Graph },
		newPartitionJob, graphBody[mlpart.PartitionRequest]),
	mlpart.JobTypeOrder: requestCodec(
		func(bj mlpart.BatchJob) *mlpart.OrderRequest { return bj.Order },
		func(r *mlpart.OrderRequest) *mlpart.WireGraph { return &r.Graph },
		newOrderJob, graphBody[mlpart.OrderRequest]),
	mlpart.JobTypeRepartition: requestCodec(
		func(bj mlpart.BatchJob) *mlpart.RepartitionRequest { return bj.Repartition },
		func(r *mlpart.RepartitionRequest) *mlpart.WireGraph { return &r.Graph },
		newRepartitionJob, repartitionBody),
}

// serveCompute is POST on the three compute endpoints: content
// negotiation, then the admitted request path with the type's codec.
func (s *Server) serveCompute(w http.ResponseWriter, r *http.Request, typ string) {
	if !allow(w, r, http.MethodPost) {
		return
	}
	epm := s.met.endpoints[typ]
	epm.requests.Add(1)
	start := time.Now()

	// Content negotiation happens before admission: an unsupported media
	// type is a protocol error the daemon can refuse without spending a
	// queue slot, and its own counter separates "client speaks the wrong
	// encoding" from generic bad requests in /varz.
	isBinary, ok := s.negotiate(w, r)
	if !ok {
		return
	}
	c := codecs[typ]
	s.admit(w, r, epm, start, http.StatusOK, func() (job, bool) {
		return decodeBody(s, w, r, isBinary, c.json, c.binary)
	})
}

// admit is the one path of every synchronous request that computes — the
// compute endpoints and the session writes: admission control, decode,
// cache lookup, worker acquisition under the request deadline, then
// execute. decode reads the request into its job, answering a bad body
// itself; status is the reply code of a success. A session write
// (sessionJob) changes resident state, so it is neither cached nor traced.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, epm *endpointMetrics, start time.Time,
	status int, decode func() (job, bool)) {
	// Stage 1: admission. No token, no work — shed immediately so load
	// beyond workers+queue degrades into fast 429s, not memory growth.
	if !s.pool.tryAdmit() {
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"saturated: %d computing and up to %d queued; retry later",
			s.pool.workers(), s.pool.queueCapacity())
		return
	}
	s.met.admitted.Add(1)
	defer s.pool.releaseAdmit()
	s.met.queued.Add(1)
	inQueue := true
	dequeue := func() {
		if inQueue {
			inQueue = false
			s.met.queued.Add(-1)
		}
	}
	defer dequeue()

	// Decoding (including the zero-copy binary decode and its fused
	// validation) runs here, outside the worker slot: a malformed body
	// never costs compute capacity.
	j, ok := decode()
	if !ok {
		return
	}
	if pj, ok := j.(presetJob); ok {
		s.met.countPreset(pj.preset())
	}
	_, session := j.(sessionJob)
	wantTrace := !session && r.URL.Query().Get("trace") == "1"
	key := cacheKey(j, wantTrace)
	if body, ok := s.cached(key); ok {
		epm.done(start)
		writeOutcome(w, outcome{Outcome: jobs.Outcome{Code: http.StatusOK, Body: body}}, "hit")
		return
	}

	// The context also fires when the client disconnects.
	ctx, cancel := s.deadline(r.Context(), j)
	defer cancel()

	// Stage 2: wait for a worker slot. A request whose deadline already
	// passed (or passes while queued) aborts here without ever entering
	// the pool.
	if err := s.pool.acquire(ctx); err != nil {
		writeOutcome(w, s.aborted(ctx, err), "")
		return
	}
	dequeue()
	defer s.pool.release()

	cacheStatus := "miss"
	var col *mlpart.TraceCollector
	switch {
	case session:
		cacheStatus = ""
	case wantTrace:
		cacheStatus = "bypass"
		col = &mlpart.TraceCollector{}
	}
	o := s.execute(ctx, j, key, faults.SiteServiceWorker, col, "")
	if o.Code == http.StatusOK {
		epm.done(start)
		o.Code = status
	}
	writeOutcome(w, o, cacheStatus)
}

// cacheKey returns j's result-cache key, or "" when the request bypasses
// the cache: tracing bypasses it in both directions, because its events
// describe one particular execution.
func cacheKey(j job, wantTrace bool) string {
	if wantTrace {
		return ""
	}
	return j.key()
}

// cached looks key up in the result cache and counts the hit or miss;
// the empty key bypasses the cache uncounted.
func (s *Server) cached(key string) ([]byte, bool) {
	if key == "" {
		return nil, false
	}
	body, ok := s.cache.get(key)
	if ok {
		s.met.cacheHits.Add(1)
	} else {
		s.met.cacheMisses.Add(1)
	}
	return body, ok
}

// deadline derives j's compute context from parent: the client's budget,
// clamped by the server ceiling.
func (s *Server) deadline(parent context.Context, j job) (context.Context, context.CancelFunc) {
	timeout := s.cfg.Timeout
	if ms := j.timeoutMS(); ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return context.WithTimeout(parent, timeout)
}

// outcome is one execution's reply: the status and encoded body the
// synchronous endpoint writes and an asynchronous job stores.
type outcome struct {
	jobs.Outcome
	incident string        // X-Incident-Id of an internal failure
	reason   string        // a failed job record's error text
	compute  time.Duration // time spent in the computation itself
	canceled bool          // the caller went away: there is no reply
}

// execute runs one decoded job inside a held worker slot and encodes its
// reply. Synchronous requests, jobs and batch entries all run through it,
// so their replies are byte-identical by construction. The fault site
// fires first (so operators can poison the worker path itself), then the
// job runs with any panic — injected or organic — recovered into a typed
// *faults.PanicError instead of unwinding into net/http, whose own
// recover would kill the connection without a reply. A clean result is
// cached under key ("" bypasses the cache) and, when col is non-nil,
// wrapped with the captured trace; jobID names the asynchronous job whose
// completion joins that trace ("" for synchronous requests).
func (s *Server) execute(ctx context.Context, j job, key, site string, col *mlpart.TraceCollector, jobID string) (o outcome) {
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)
	if s.hookCompute != nil {
		s.hookCompute(ctx)
	}
	s.met.started.Add(1)

	var tr mlpart.Tracer
	if col != nil {
		tr = col
	}
	var resp any
	start := time.Now()
	err := faults.Boundary(site, func() error {
		if ierr := s.inj.Fire(site); ierr != nil {
			return ierr
		}
		var rerr error
		resp, rerr = j.run(ctx, tr, s.inj)
		return rerr
	})
	elapsed := time.Since(start)
	defer func() { o.compute = elapsed }()
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return s.aborted(ctx, err)
	case err != nil:
		return s.computeFailure(err)
	}
	if degradedResponse(resp) {
		// A degraded result is valid but execution-specific (it reflects
		// transient fault state); count it and keep it out of the cache so
		// a later identical request gets a clean run.
		s.met.degraded.Add(1)
		key = ""
	}
	body, err := json.Marshal(resp)
	if err != nil {
		return s.encodeFailure("encode", err)
	}
	body = append(body, '\n')
	if key != "" {
		s.cache.put(key, body)
	}
	if col != nil {
		if jobID != "" {
			col.Event(mlpart.TraceEvent{
				Kind: trace.KindJob, Phase: "done", Job: jobID, ElapsedNS: elapsed.Nanoseconds(),
			})
		}
		env := struct {
			Result json.RawMessage     `json:"result"`
			Trace  []mlpart.TraceEvent `json:"trace"`
		}{
			Result: json.RawMessage(bytes.TrimRight(body, "\n")),
			Trace:  col.Events(),
		}
		tb, err := json.Marshal(env)
		if err != nil {
			return s.encodeFailure("encode trace", err)
		}
		body = append(tb, '\n')
	}
	return outcome{Outcome: jobs.Outcome{Code: http.StatusOK, Body: body}}
}

// computeFailure maps a non-context compute error to its reply, bumping
// the same counters and incident log for every caller.
//
// A recovered panic or an injected infrastructure fault is the server's
// failure, not the client's: 500 with an incident id, detail logged
// server-side — the poisoned request must not take the daemon down. A
// session write's typed failures carry their own statuses: an unknown
// session is 404, a duplicate 409, a batch or graph over its session's
// budget 413, and a full registry 429. Everything else the engine rejects
// is a client error: 400.
func (s *Server) computeFailure(err error) outcome {
	o := outcome{reason: err.Error()}
	var pe *faults.PanicError
	var ie *faults.InjectedError
	switch {
	case errors.As(err, &pe):
		s.met.panicsRecovered.Add(1)
		s.met.errors.Add(1)
		o.incident = s.nextIncident()
		log.Printf("mlserved: incident %s: recovered panic at %s: %v\n%s", o.incident, pe.Site, pe.Value, pe.Stack)
		o.Code = http.StatusInternalServerError
		o.Body = errorBody("internal error (incident %s): the request could not be completed", o.incident)
	case errors.As(err, &ie):
		s.met.errors.Add(1)
		o.incident = s.nextIncident()
		log.Printf("mlserved: incident %s: %v", o.incident, err)
		o.Code = http.StatusInternalServerError
		o.Body = errorBody("internal error (incident %s): %v", o.incident, err)
	case errors.Is(err, sessions.ErrNotFound):
		o.Code = http.StatusNotFound
	case errors.Is(err, sessions.ErrExists):
		o.Code = http.StatusConflict
	case errors.Is(err, sessions.ErrBatchTooLarge), errors.Is(err, sessions.ErrSessionBytes):
		o.Code = http.StatusRequestEntityTooLarge
	case errors.Is(err, sessions.ErrTooManySessions), errors.Is(err, sessions.ErrResidentBytes):
		s.met.rejected.Add(1)
		o.Code = http.StatusTooManyRequests
	default:
		s.met.badReqs.Add(1)
		o.Code = http.StatusBadRequest
	}
	if o.Body == nil {
		o.Body = errorBody("%v", err)
	}
	return o
}

// encodeFailure is the 500 reply of a result the daemon could not encode.
func (s *Server) encodeFailure(what string, err error) outcome {
	s.met.errors.Add(1)
	return outcome{
		Outcome: jobs.Outcome{Code: http.StatusInternalServerError, Body: errorBody("%s: %v", what, err)},
		reason:  "encode failure",
	}
}

// aborted is the reply to work whose context ended it: a passed deadline
// is a 504; a canceled caller — a vanished client or a DELETEd job — gets
// no reply at all.
func (s *Server) aborted(ctx context.Context, err error) outcome {
	if errors.Is(ctx.Err(), context.Canceled) {
		s.met.canceled.Add(1)
		return outcome{canceled: true}
	}
	s.met.timedOut.Add(1)
	return outcome{
		Outcome: jobs.Outcome{Code: http.StatusGatewayTimeout, Body: errorBody("deadline exceeded: %v", err)},
		reason:  "deadline exceeded",
	}
}

// degradedResponse reports whether a computed response took a
// graceful-degradation fallback.
func degradedResponse(resp any) bool {
	pr, ok := resp.(*mlpart.PartitionResponse)
	return ok && len(pr.Degradations) > 0
}

// writeOutcome writes an execution's reply. A success carries its cache
// status (none for "") and compute time as headers, so that cached bodies
// stay byte-identical to cold ones; a failure carries its incident id, and
// a 429 its Retry-After hint.
func writeOutcome(w http.ResponseWriter, o outcome, cacheStatus string) {
	if o.canceled {
		return
	}
	h := w.Header()
	switch {
	case o.Code == http.StatusOK || o.Code == http.StatusCreated:
		if cacheStatus != "" {
			h.Set("X-Cache", cacheStatus)
		}
		if ns := o.compute.Nanoseconds(); ns > 0 {
			h.Set("X-Compute-Ns", strconv.FormatInt(ns, 10))
		}
	case o.incident != "":
		h.Set("X-Incident-Id", o.incident)
	case o.Code == http.StatusTooManyRequests:
		h.Set("Retry-After", "1")
	}
	writeBody(w, o.Code, o.Body)
}

// negotiate classifies the request body's encoding: JSON (the default
// when Content-Type is absent) or binary CSR. Anything else is answered
// with 415 Unsupported Media Type and ok=false.
func (s *Server) negotiate(w http.ResponseWriter, r *http.Request) (isBinary, ok bool) {
	isBinary, err := binaryRequest(r)
	if err != nil {
		s.met.unsupportedMedia.Add(1)
		writeError(w, http.StatusUnsupportedMediaType,
			"%v (want %q or %q)", err, mlpart.ContentTypeJSON, mlpart.ContentTypeBinaryCSR)
		return false, false
	}
	return isBinary, true
}

// binaryRequest classifies the request's Content-Type: false for JSON
// (the default when the header is absent), true for the binary CSR
// encoding, an error for anything else.
func binaryRequest(r *http.Request) (bool, error) {
	ctype := r.Header.Get("Content-Type")
	if ctype == "" {
		return false, nil
	}
	mt, _, err := mime.ParseMediaType(ctype)
	if err != nil {
		return false, fmt.Errorf("unparseable Content-Type %q", ctype)
	}
	switch mt {
	case mlpart.ContentTypeJSON:
		return false, nil
	case mlpart.ContentTypeBinaryCSR:
		return true, nil
	}
	return false, fmt.Errorf("unsupported Content-Type %q", mt)
}

// decodeBody reads the request body in full, capped at MaxBodyBytes,
// and decodes it with fromBinary (the csrb body plus the URL query) or
// fromJSON. A failure is answered with 400 and ok=false.
func decodeBody[T any](s *Server, w http.ResponseWriter, r *http.Request, isBinary bool,
	fromJSON func([]byte) (T, error), fromBinary func([]byte, url.Values) (T, error)) (v T, ok bool) {
	data, err := readBody(w, r, s.cfg.MaxBodyBytes)
	switch {
	case err != nil:
		err = fmt.Errorf("read body: %v", err)
	case isBinary:
		v, err = fromBinary(data, r.URL.Query())
	default:
		v, err = fromJSON(data)
	}
	if err != nil {
		s.met.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
		return v, false
	}
	return v, true
}

// readBody reads r's body through http.MaxBytesReader(limit) into one
// buffer. A Content-Length within the limit sizes that buffer, but only
// once half of the declared body has arrived: until then the bytes go
// into kept chunks of 64 KiB, doubling up to 1 MiB, so a client that
// declares a large body and sends little of it holds little memory. The
// chunks are then copied into the one buffer, so a body costs about 1.5
// times its size. The spare MinRead bytes leave room for the final read
// that reports io.EOF.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, limit)
	buf := new(bytes.Buffer)
	if cl := r.ContentLength; cl > 0 && cl <= limit {
		chunks, n, err := readChunks(body, cl/2)
		if err != nil {
			return nil, err
		}
		size := n + bytes.MinRead
		if n == cl/2 {
			size = cl + bytes.MinRead
		}
		b := make([]byte, 0, size)
		for _, c := range chunks {
			b = append(b, c...)
		}
		buf = bytes.NewBuffer(b)
	}
	if _, err := buf.ReadFrom(body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// readChunks reads up to want bytes of r into chunks of 64 KiB, doubling
// up to 1 MiB, the last one no larger than the bytes left to want. It
// stops early at io.EOF and returns the chunks and the bytes read.
func readChunks(r io.Reader, want int64) (chunks [][]byte, n int64, err error) {
	for size := int64(64 << 10); n < want; size = min(2*size, 1<<20) {
		c := make([]byte, min(size, want-n))
		m := 0
		for m < len(c) && err == nil {
			var k int
			k, err = r.Read(c[m:])
			m += k
		}
		chunks, n = append(chunks, c[:m]), n+int64(m)
		if err == io.EOF {
			return chunks, n, nil
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return chunks, n, nil
}

// queryInto sets the fields of the request *req from a binary request's
// URL query: each field under its JSON tag (or its query tag, where it
// has one), recursing into the option structs behind pointer fields. A
// nested struct is allocated only when one of its parameters is present,
// and an absent or empty parameter leaves its field untouched, so both
// mean exactly what an omitted JSON field does. Fields a query cannot
// carry are skipped: the graph and the incumbent where vector travel in
// the csrb body, and json:"-" fields never cross the wire. Every
// malformed parameter is reported, in field order.
func queryInto(q url.Values, req any) error {
	var errs []error
	queryFields(q, reflect.ValueOf(req).Elem(), &errs)
	return errlist.Join(errs...)
}

// queryFields sets the fields of struct v from q, appending an error per
// malformed parameter to errs, and reports whether any parameter was
// present.
func queryFields(q url.Values, v reflect.Value, errs *[]error) (present bool) {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if qn := f.Tag.Get("query"); qn != "" {
			name = qn
		}
		switch s := q.Get(name); {
		case name == "-":
		case f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct:
			nested := reflect.New(f.Type.Elem())
			if queryFields(q, nested.Elem(), errs) {
				fv.Set(nested)
				present = true
			}
		case s != "":
			present = true
			if problem := setQueryValue(fv, s); problem != "" {
				*errs = append(*errs, fmt.Errorf("query %s=%q: %s", name, s, problem))
			}
		}
	}
	return present
}

// setQueryValue parses s into fv and describes a malformed value; a
// field of a type no query carries (the graph, where) is left alone.
// Values a JSON body cannot carry either — invalid UTF-8, a NaN or
// infinite number — are malformed, so a query sets nothing the JSON form
// could not.
func setQueryValue(fv reflect.Value, s string) (problem string) {
	switch fv.Kind() {
	case reflect.String:
		if !utf8.ValidString(s) {
			return "not valid UTF-8"
		}
		fv.SetString(s)
	case reflect.Int, reflect.Int64:
		n, err := strconv.ParseInt(s, 10, fv.Type().Bits())
		if err != nil {
			return "not an integer"
		}
		fv.SetInt(n)
	case reflect.Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
			return "not a number"
		}
		fv.SetFloat(f)
	case reflect.Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return "not a boolean"
		}
		fv.SetBool(b)
	case reflect.Slice:
		if fv.Type().Elem().Kind() != reflect.Float64 {
			return ""
		}
		// A comma-separated list, e.g. fractions=2,1,1.
		parts := strings.Split(s, ",")
		list := reflect.MakeSlice(fv.Type(), len(parts), len(parts))
		for i, part := range parts {
			if setQueryValue(list.Index(i), strings.TrimSpace(part)) != "" {
				return fmt.Sprintf("bad number %q", part)
			}
		}
		fv.Set(list)
	}
	return ""
}

// decodeBinary decodes a binary request of type R: body decodes the csrb
// body into the graph and may fill in req; queryInto sets every other
// field.
func decodeBinary[R any](data []byte, q url.Values, body func([]byte, *R) (*mlpart.Graph, error)) (req R, g *mlpart.Graph, err error) {
	if g, err = body(data, &req); err == nil {
		err = queryInto(q, &req)
	}
	return req, g, err
}

// graphBody decodes a csrb body that carries the graph alone.
func graphBody[R any](data []byte, _ *R) (*mlpart.Graph, error) {
	g, err := mlpart.DecodeBinaryGraph(data)
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	return g, nil
}

// cloneOptions returns a private copy of o (nil means defaults) so the
// server can install a per-request tracer without mutating the client's
// decoded options.
func cloneOptions(o *mlpart.Options) *mlpart.Options {
	c := mlpart.Options{}
	if o != nil {
		c = *o
	}
	return &c
}

// canonicalOptions is the options term of a result-cache key:
// (*mlpart.Options).ResultKey, which resolves every default through the
// engine itself, so requests that spell a default share the entry of
// requests that omit it. Jobs hold validated options only; an invalid
// configuration still renders a key, one that no valid request shares.
func canonicalOptions(o *mlpart.Options) string {
	key, err := o.ResultKey()
	if err != nil {
		return "invalid: " + err.Error()
	}
	return key
}

// hashInts is FNV-1a over an int slice (for the repartition key's
// incumbent vector).
func hashInts(xs []int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range xs {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	return h
}

// --- /v1/partition ---

type partitionJob struct {
	req mlpart.PartitionRequest
	g   *mlpart.Graph
}

// newPartitionJob validates the non-graph fields shared by the JSON and
// binary encodings and builds the job.
func newPartitionJob(req mlpart.PartitionRequest, g *mlpart.Graph) (job, error) {
	if err := req.Options.Validate(); err != nil {
		return nil, fmt.Errorf("bad options: %v", err)
	}
	switch req.Method {
	case "", mlpart.MethodRecursive, mlpart.MethodKWay:
	default:
		return nil, fmt.Errorf("unknown method %q (want %q or %q)",
			req.Method, mlpart.MethodRecursive, mlpart.MethodKWay)
	}
	if len(req.Fractions) > 0 && req.Method == mlpart.MethodKWay {
		return nil, fmt.Errorf("fractions are incompatible with method %q", mlpart.MethodKWay)
	}
	if len(req.Fractions) == 0 && req.K < 1 {
		return nil, fmt.Errorf("k = %d, want >= 1 (or non-empty fractions)", req.K)
	}
	return &partitionJob{req: req, g: g}, nil
}

func (j *partitionJob) timeoutMS() int64 { return j.req.TimeoutMS }

// preset reports the request's quality preset for the varz counters,
// normalized by effective cycle count so `cycles=4` with no preset counts
// as strong and a custom count lands in its own bucket.
func (j *partitionJob) preset() string {
	switch j.req.Options.EffectiveCycles() {
	case 1:
		return mlpart.PresetFast
	case 2:
		return mlpart.PresetEco
	case 4:
		return mlpart.PresetStrong
	}
	return "custom"
}

func (j *partitionJob) key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s|fp=%016x|%s|", epPartition, j.g.Fingerprint(), canonicalOptions(j.req.Options))
	if len(j.req.Fractions) > 0 {
		// Fractions are normalized by the engine; normalize the key the
		// same way so (2,1) and (4,2) share an entry.
		sum := 0.0
		for _, f := range j.req.Fractions {
			sum += f
		}
		sb.WriteString("frac=")
		for _, f := range j.req.Fractions {
			fmt.Fprintf(&sb, "%.17g,", f/sum)
		}
	} else {
		method := j.req.Method
		if method == "" {
			method = mlpart.MethodRecursive
		}
		fmt.Fprintf(&sb, "method=%s k=%d", method, j.req.K)
	}
	return sb.String()
}

func (j *partitionJob) run(ctx context.Context, tr mlpart.Tracer, inj *mlpart.FaultInjector) (any, error) {
	opts := cloneOptions(j.req.Options)
	opts.Tracer = tr
	opts.FaultInjector = inj
	var (
		res *mlpart.Partitioning
		err error
	)
	k := j.req.K
	switch {
	case len(j.req.Fractions) > 0:
		k = len(j.req.Fractions)
		res, err = mlpart.PartitionWeightedCtx(ctx, j.g, j.req.Fractions, opts)
	case j.req.Method == mlpart.MethodKWay:
		res, err = mlpart.PartitionDirectKWayCtx(ctx, j.g, k, opts)
	default:
		res, err = mlpart.PartitionCtx(ctx, j.g, k, opts)
	}
	if err != nil {
		return nil, err
	}
	return &mlpart.PartitionResponse{
		Kind:          mlpart.WireKindResult,
		SchemaVersion: mlpart.SchemaVersion,
		Vertices:      j.g.NumVertices(),
		Edges:         j.g.NumEdges(),
		K:             k,
		EdgeCut:       res.EdgeCut,
		Balance:       res.Balance(),
		PartWeights:   res.PartWeights,
		Where:         res.Where,
		Cycles:        res.Cycles,
		Degradations:  res.Degradations,
	}, nil
}

// --- /v1/order ---

type orderJob struct {
	req mlpart.OrderRequest
	g   *mlpart.Graph
}

// newOrderJob validates the non-graph fields shared by the JSON and
// binary encodings and builds the job.
func newOrderJob(req mlpart.OrderRequest, g *mlpart.Graph) (job, error) {
	if err := req.Options.Validate(); err != nil {
		return nil, fmt.Errorf("bad options: %v", err)
	}
	return &orderJob{req: req, g: g}, nil
}

func (j *orderJob) timeoutMS() int64 { return j.req.TimeoutMS }

func (j *orderJob) key() string {
	return fmt.Sprintf("%s|fp=%016x|%s|analyze=%t",
		epOrder, j.g.Fingerprint(), canonicalOptions(j.req.Options), j.req.Analyze)
}

func (j *orderJob) run(ctx context.Context, tr mlpart.Tracer, inj *mlpart.FaultInjector) (any, error) {
	opts := cloneOptions(j.req.Options)
	opts.Tracer = tr
	opts.FaultInjector = inj
	perm, iperm, err := mlpart.NestedDissectionCtx(ctx, j.g, opts)
	if err != nil {
		return nil, err
	}
	resp := &mlpart.OrderResponse{
		Kind:          mlpart.WireKindOrder,
		SchemaVersion: mlpart.SchemaVersion,
		Vertices:      j.g.NumVertices(),
		Edges:         j.g.NumEdges(),
		Perm:          perm,
		Iperm:         iperm,
	}
	if j.req.Analyze {
		stats, err := mlpart.AnalyzeOrdering(j.g, perm)
		if err != nil {
			return nil, err
		}
		resp.Analysis = stats
	}
	return resp, nil
}

// --- /v1/repartition ---

type repartitionJob struct {
	req mlpart.RepartitionRequest
	g   *mlpart.Graph
}

// newRepartitionJob validates the non-graph fields shared by the JSON
// and binary encodings and builds the job.
func newRepartitionJob(req mlpart.RepartitionRequest, g *mlpart.Graph) (job, error) {
	if err := req.Options.Validate(); err != nil {
		return nil, fmt.Errorf("bad options: %v", err)
	}
	return &repartitionJob{req: req, g: g}, nil
}

// repartitionBody decodes a repartition request's csrb body: the graph
// plus the incumbent partition, which becomes req.Where.
func repartitionBody(data []byte, req *mlpart.RepartitionRequest) (*mlpart.Graph, error) {
	g, part, err := mlpart.DecodeBinaryGraphPart(data)
	if err != nil {
		return nil, fmt.Errorf("bad graph: %v", err)
	}
	if part == nil {
		return nil, errors.New("repartition: binary body carries no part section " +
			"(encode the incumbent partition with WriteBinaryGraphPart)")
	}
	req.Where = part
	return g, nil
}

func (j *repartitionJob) timeoutMS() int64 { return j.req.TimeoutMS }

func (j *repartitionJob) key() string {
	return fmt.Sprintf("%s|fp=%016x|k=%d|%s|wh=%016x",
		epRepartition, j.g.Fingerprint(), j.req.K, j.req.Options.ResultKey(), hashInts(j.req.Where))
}

func (j *repartitionJob) run(ctx context.Context, _ mlpart.Tracer, _ *mlpart.FaultInjector) (any, error) {
	// Repartition is a single sweep with no level boundaries to poll, so
	// it only honors the deadline up front; it is the cheapest of the
	// three computations by a wide margin.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, err := mlpart.Repartition(j.g, j.req.K, j.req.Where, j.req.Options)
	if err != nil {
		return nil, err
	}
	return &mlpart.RepartitionResponse{
		Kind:           mlpart.WireKindRepartition,
		SchemaVersion:  mlpart.SchemaVersion,
		Vertices:       j.g.NumVertices(),
		Edges:          j.g.NumEdges(),
		K:              j.req.K,
		EdgeCut:        res.EdgeCut,
		PartWeights:    res.PartWeights,
		Where:          res.Where,
		MigratedWeight: res.MigratedWeight,
	}, nil
}
