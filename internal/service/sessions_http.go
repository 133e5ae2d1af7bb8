package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
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
// Creation, deltas and repairs are session writes: each runs as a
// sessionJob on the compute endpoints' own path (admit), so it passes
// admission control, decodes outside the worker slot, waits for a slot
// under the request deadline and executes with the same panic boundary
// and error mapping. The manager's session-count and resident-byte
// budgets are checked only once the slot is held: they bound resident
// state, not waiting requests. Writes are refused with 503 while
// draining; reads, the list and deletes take only the session lock and
// keep working so operators can inspect and shed state.

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

// sessionJob is one session write as a job: its reply is the session's
// state after the write, which is never cached.
type sessionJob func(ctx context.Context) (*sessions.State, error)

func (sessionJob) key() string      { return "" }
func (sessionJob) timeoutMS() int64 { return 0 }

func (j sessionJob) run(ctx context.Context, _ mlpart.Tracer, _ *mlpart.FaultInjector) (any, error) {
	st, err := j(ctx)
	if err != nil {
		return nil, err
	}
	return sessionWire(st), nil
}

// createCodec is the codec of a POST /v1/graphs body, JSON or csrb;
// build turns the decoded request into its job. No batch entry carries
// one.
func createCodec(build func(mlpart.SessionCreateRequest, *mlpart.Graph) (job, error)) codec {
	return requestCodec(func(mlpart.BatchJob) *mlpart.SessionCreateRequest { return nil },
		func(req *mlpart.SessionCreateRequest) *mlpart.WireGraph { return &req.Graph },
		build, graphBody[mlpart.SessionCreateRequest])
}

// decodeWrite decodes a delta or repair request's JSON body, capped at
// MaxBodyBytes; an empty body is a zero request when emptyOK. A failure is
// answered with 400 and ok=false.
func decodeWrite[R any](s *Server, w http.ResponseWriter, r *http.Request, emptyOK bool) (req R, ok bool) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)).Decode(&req)
	if err != nil && !(emptyOK && errors.Is(err, io.EOF)) {
		s.met.badReqs.Add(1)
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return req, false
	}
	return req, true
}

// sessionRequest opens a request to the session API: 404 while the API
// is disabled, else the request is counted and its endpoint metrics and
// start time returned.
func (s *Server) sessionRequest(w http.ResponseWriter) (*endpointMetrics, time.Time, bool) {
	if s.sessions == nil {
		writeError(w, http.StatusNotFound, "session API disabled (max sessions < 0)")
		return nil, time.Time{}, false
	}
	epm := s.met.endpoints[epSessions]
	epm.requests.Add(1)
	return epm, time.Now(), true
}

// serveSessions is GET (list) / POST (create) /v1/graphs.
func (s *Server) serveSessions(w http.ResponseWriter, r *http.Request) {
	epm, start, ok := s.sessionRequest(w)
	if !ok || !allow(w, r, http.MethodGet, http.MethodPost) {
		return
	}
	if r.Method == http.MethodGet {
		resp := mlpart.SessionListResponse{
			Kind:          mlpart.WireKindSessionList,
			SchemaVersion: mlpart.SchemaVersion,
			Sessions:      []mlpart.SessionResponse{},
		}
		for _, st := range s.sessions.List() {
			resp.Sessions = append(resp.Sessions, sessionWire(st))
		}
		writeJSON(w, http.StatusOK, resp)
		epm.done(start)
		return
	}
	if s.refuseDraining(w, "new sessions") {
		return
	}
	isBinary, ok := s.negotiate(w, r)
	if !ok {
		return
	}
	// The initial partition is a full V-cycle under the request deadline;
	// a create that misses it leaves no session behind.
	c := createCodec(func(req mlpart.SessionCreateRequest, g *mlpart.Graph) (job, error) {
		cfg := sessions.Config{K: req.K, Seed: req.Seed, Ubfactor: req.Ubfactor}
		return sessionJob(func(ctx context.Context) (*sessions.State, error) {
			st, err := s.sessions.CreateCtx(ctx, g, cfg)
			if err == nil {
				w.Header().Set("Location", "/v1/graphs/"+st.ID)
			}
			return st, err
		}), nil
	})
	s.admit(w, r, epm, start, http.StatusCreated, func() (job, bool) {
		return decodeBody(s, w, r, isBinary, c.json, c.binary)
	})
}

// serveSessionByID routes /v1/graphs/{id}, /v1/graphs/{id}/edges and
// /v1/graphs/{id}/repartition.
func (s *Server) serveSessionByID(w http.ResponseWriter, r *http.Request) {
	epm, start, ok := s.sessionRequest(w)
	if !ok {
		return
	}
	id, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/graphs/"), "/")
	switch {
	case id == "":
		writeError(w, http.StatusNotFound, "no such resource %q", r.URL.Path)
	case sub == "":
		if !allow(w, r, http.MethodGet, http.MethodDelete) {
			return
		}
		if r.Method == http.MethodGet {
			st, err := s.sessions.Get(id, r.URL.Query().Get("where") == "1")
			if err != nil {
				writeOutcome(w, s.computeFailure(err), "")
				return
			}
			writeJSON(w, http.StatusOK, sessionWire(st))
		} else {
			if err := s.sessions.Delete(id); err != nil {
				writeOutcome(w, s.computeFailure(err), "")
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}
		epm.done(start)
	case sub == "edges":
		if !allow(w, r, http.MethodPost) || s.refuseDraining(w, "session deltas") {
			return
		}
		s.admit(w, r, epm, start, http.StatusOK, func() (job, bool) {
			req, ok := decodeWrite[mlpart.SessionDeltaRequest](s, w, r, false)
			if !ok {
				return nil, false
			}
			ops := make([]sessions.Op, len(req.Ops))
			for i, op := range req.Ops {
				ops[i] = sessions.Op(op)
			}
			return sessionJob(func(context.Context) (*sessions.State, error) { return s.sessions.Apply(id, ops) }), true
		})
	case sub == "repartition":
		if !allow(w, r, http.MethodPost) || s.refuseDraining(w, "session repairs") {
			return
		}
		s.admit(w, r, epm, start, http.StatusOK, func() (job, bool) {
			req, ok := decodeWrite[mlpart.SessionRepairRequest](s, w, r, true)
			return sessionJob(func(context.Context) (*sessions.State, error) { return s.sessions.Repair(id, req.Mode) }), ok
		})
	default:
		writeError(w, http.StatusNotFound, "no such resource %q", r.URL.Path)
	}
}
