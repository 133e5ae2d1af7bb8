package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	"mlpart"
	"mlpart/internal/sessions"
)

// The resident graph session API. A session pins a graph in memory with
// an incumbent partition; streaming delta batches mutate it in place and
// the drift ladder repairs the partition incrementally instead of
// repartitioning from scratch on every change.
//
//	GET    /v1/graphs                      list resident sessions
//	POST   /v1/graphs                      create (JSON or csrb body) → 201 + id
//	GET    /v1/graphs/{id}[?where=1]       inspect (optionally with the vector)
//	POST   /v1/graphs/{id}/edges           apply one atomic delta batch
//	POST   /v1/graphs/{id}/repartition     explicit repair (auto or forced tier)
//	DELETE /v1/graphs/{id}                 drop the session (memory and disk)
//
// Sessions bypass the admission queue — the manager's session-count and
// resident-byte budgets are their admission control — but creation,
// deltas and repairs wait for the same worker slots as synchronous
// requests, so the pool's concurrency bound holds across all three APIs.
// Mutating requests are refused with 503 while draining; reads and
// deletes keep working so operators can inspect and shed state.

// epSessions is the /varz endpoint name of the session API.
const epSessions = "sessions"

// sessionWire renders a manager state snapshot as the wire response.
func sessionWire(st *sessions.State) mlpart.SessionResponse {
	return mlpart.SessionResponse{
		Kind:          mlpart.WireKindSession,
		SchemaVersion: mlpart.SchemaVersion,
		ID:            st.ID,
		Vertices:      st.Vertices,
		Edges:         st.Edges,
		K:             st.K,
		EdgeCut:       st.Cut,
		BaselineCut:   st.BaselineCut,
		Balance:       st.Balance,
		PartWeights:   st.PartWeights,
		Where:         st.Where,
		Seq:           st.Seq,
		Deltas:        st.Deltas,
		ResidentBytes: st.ResidentBytes,
		LastRepair:    st.LastRepair,
		RepairFailed:  st.RepairFailed,
		Recovered:     st.Recovered,
		Degraded:      st.Degraded,
	}
}

// writeSession writes a SessionResponse (or list) reply.
func writeSession(w http.ResponseWriter, status int, resp any) {
	b, err := json.Marshal(resp)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode: %v", err)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// sessionFailure maps a manager error to its HTTP reply. Typed budget
// and lookup failures carry their own statuses; anything else falls
// through to computeFailure, so an injected fault or recovered panic
// inside a session gets the same 500-plus-incident treatment as the
// compute endpoints.
func (s *Server) sessionFailure(w http.ResponseWriter, err error) {
	var oe *sessions.OpError
	switch {
	case errors.As(err, &oe):
		s.met.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, "%v", err)
	case errors.Is(err, sessions.ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, sessions.ErrExists):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, sessions.ErrBatchTooLarge), errors.Is(err, sessions.ErrSessionBytes):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.Is(err, sessions.ErrTooManySessions), errors.Is(err, sessions.ErrResidentBytes):
		s.met.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	default:
		writeOutcome(w, s.computeFailure(err), "")
	}
}

// sessionSlot blocks for a worker slot under the server's compute
// ceiling; the returned release func is non-nil exactly when acquisition
// succeeded (failure has already been written to w).
func (s *Server) sessionSlot(w http.ResponseWriter, r *http.Request) func() {
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	if err := s.pool.acquire(ctx); err != nil {
		writeOutcome(w, s.aborted(ctx, err), "")
		cancel()
		return nil
	}
	s.met.inFlight.Add(1)
	s.met.started.Add(1)
	return func() {
		s.met.inFlight.Add(-1)
		s.pool.release()
		cancel()
	}
}

// sessionCreate is a decoded POST /v1/graphs body.
type sessionCreate struct {
	g   *mlpart.Graph
	req mlpart.SessionCreateRequest
}

func decodeSessionCreate(data []byte) (sessionCreate, error) {
	req, err := decodeJSON(data, func(r *mlpart.SessionCreateRequest) *mlpart.WireGraph { return &r.Graph })
	if err != nil {
		return sessionCreate{}, fmt.Errorf("bad request body: %v", err)
	}
	g, err := req.Graph.ToGraph()
	if err != nil {
		return sessionCreate{}, fmt.Errorf("bad graph: %v", err)
	}
	return sessionCreate{g, req}, nil
}

func decodeSessionCreateBinary(data []byte, q url.Values) (sessionCreate, error) {
	req, g, err := decodeBinary(data, q, graphBody[mlpart.SessionCreateRequest])
	return sessionCreate{g, req}, err
}

// serveSessions is GET (list) / POST (create) /v1/graphs.
func (s *Server) serveSessions(w http.ResponseWriter, r *http.Request) {
	if s.sessions == nil {
		writeError(w, http.StatusNotFound, "session API disabled (max sessions < 0)")
		return
	}
	epm := s.met.endpoints[epSessions]
	epm.requests.Add(1)
	start := time.Now()
	switch r.Method {
	case http.MethodGet:
		resp := mlpart.SessionListResponse{
			Kind:          mlpart.WireKindSessionList,
			SchemaVersion: mlpart.SchemaVersion,
			Sessions:      []mlpart.SessionResponse{},
		}
		for _, st := range s.sessions.List() {
			resp.Sessions = append(resp.Sessions, sessionWire(st))
		}
		writeSession(w, http.StatusOK, resp)
		epm.completed.Add(1)
		epm.latency.observe(time.Since(start))
	case http.MethodPost:
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "draining: not accepting new sessions")
			return
		}
		isBinary, ok := s.negotiate(w, r)
		if !ok {
			return
		}
		sc, ok := decodeBody(s, w, r, isBinary, decodeSessionCreate, decodeSessionCreateBinary)
		if !ok {
			return
		}
		// The initial partition is a full V-cycle: real compute, so it
		// takes a worker slot like any synchronous request.
		release := s.sessionSlot(w, r)
		if release == nil {
			return
		}
		st, cerr := s.sessions.Create(sc.g, sessions.Config{K: sc.req.K, Seed: sc.req.Seed, Ubfactor: sc.req.Ubfactor})
		release()
		if cerr != nil {
			s.sessionFailure(w, cerr)
			return
		}
		w.Header().Set("Location", "/v1/graphs/"+st.ID)
		writeSession(w, http.StatusCreated, sessionWire(st))
		epm.completed.Add(1)
		epm.latency.observe(time.Since(start))
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "%s requires GET or POST", r.URL.Path)
	}
}

// serveSessionByID routes /v1/graphs/{id}, /v1/graphs/{id}/edges and
// /v1/graphs/{id}/repartition.
func (s *Server) serveSessionByID(w http.ResponseWriter, r *http.Request) {
	if s.sessions == nil {
		writeError(w, http.StatusNotFound, "session API disabled (max sessions < 0)")
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/v1/graphs/")
	id, sub := rest, ""
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		id, sub = rest[:i], rest[i+1:]
	}
	if id == "" {
		writeError(w, http.StatusNotFound, "no such resource %q", r.URL.Path)
		return
	}
	epm := s.met.endpoints[epSessions]
	epm.requests.Add(1)
	start := time.Now()
	done := func() {
		epm.completed.Add(1)
		epm.latency.observe(time.Since(start))
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet:
			st, err := s.sessions.Get(id, r.URL.Query().Get("where") == "1")
			if err != nil {
				s.sessionFailure(w, err)
				return
			}
			writeSession(w, http.StatusOK, sessionWire(st))
			done()
		case http.MethodDelete:
			if err := s.sessions.Delete(id); err != nil {
				s.sessionFailure(w, err)
				return
			}
			w.WriteHeader(http.StatusNoContent)
			done()
		default:
			w.Header().Set("Allow", "GET, DELETE")
			writeError(w, http.StatusMethodNotAllowed, "%s requires GET or DELETE", r.URL.Path)
		}
	case "edges":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
			return
		}
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "draining: not accepting session deltas")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var req mlpart.SessionDeltaRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.met.badReqs.Add(1)
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		ops := make([]sessions.Op, len(req.Ops))
		for i, op := range req.Ops {
			ops[i] = sessions.Op(op)
		}
		release := s.sessionSlot(w, r)
		if release == nil {
			return
		}
		st, err := s.sessions.Apply(id, ops)
		release()
		if err != nil {
			s.sessionFailure(w, err)
			return
		}
		writeSession(w, http.StatusOK, sessionWire(st))
		done()
	case "repartition":
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "%s requires POST", r.URL.Path)
			return
		}
		if s.draining.Load() {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "draining: not accepting session repairs")
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		var req mlpart.SessionRepairRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			s.met.badReqs.Add(1)
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		release := s.sessionSlot(w, r)
		if release == nil {
			return
		}
		st, err := s.sessions.Repair(id, req.Mode)
		release()
		if err != nil {
			s.sessionFailure(w, err)
			return
		}
		writeSession(w, http.StatusOK, sessionWire(st))
		done()
	default:
		writeError(w, http.StatusNotFound, "no such resource %q", r.URL.Path)
	}
}
