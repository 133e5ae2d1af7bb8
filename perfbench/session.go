package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"time"

	"mlpart"
	"mlpart/internal/matgen"
	"mlpart/internal/sessions"
)

// sessionFixture drives memory-only graph sessions on the first request
// graphs of fe3d-json. Op i goes to session s = i mod len(inputs) as that
// session's op j = i / len(inputs): it posts delta batch j mod 2 to
// /v1/graphs/{id}/edges, then reads the mapping back with
// GET /v1/graphs/{id}?where=1.
type sessionFixture struct {
	inputs []sessionInput
}

// sessionInput is one session's graph, create body and delta batches.
type sessionInput struct {
	g       *mlpart.Graph
	cfgSeed int64
	csrb    []byte
	batches [2][]mlpart.DeltaOp
	bodies  [2][]byte
	id      string
}

// newFE3DSession is the fe3d-session workload on the FE3D meshes of
// fe3d-json.
func newFE3DSession(sz size, seed int64, inputs int) (fixture, error) {
	f := &sessionFixture{}
	for j := 0; j < inputs; j++ {
		g := matgen.FE3DTetra(sz.mesh, sz.mesh, sz.mesh, graphSeed(seed, j))
		var buf bytes.Buffer
		if err := mlpart.WriteBinaryGraph(&buf, g); err != nil {
			return nil, err
		}
		in := sessionInput{g: g, cfgSeed: mix(mix(seed, saltSession), int64(j)), csrb: buf.Bytes()}
		in.batches = makeBatches(g, mix(mix(seed, saltBatch), int64(j)))
		for b := range in.batches {
			body, err := json.Marshal(mlpart.SessionDeltaRequest{Ops: in.batches[b]})
			if err != nil {
				return nil, err
			}
			in.bodies[b] = body
		}
		f.inputs = append(f.inputs, in)
	}
	return f, nil
}

// makeBatches builds the two alternating delta batches, about 1% of the
// vertex count in ops each: the even batch raises the weight of a fixed
// set of existing edges by one and adds a fixed set of new edges between
// vertices two hops apart; the odd batch restores the weights and removes
// the new edges. After every odd batch the graph is the original.
func makeBatches(g *mlpart.Graph, seed int64) [2][]mlpart.DeltaOp {
	rng := rand.New(rand.NewSource(seed))
	n := g.NumVertices()
	count := max(n/200, 1)
	chosen := map[[2]int]bool{}
	key := func(u, v int) [2]int { return [2]int{min(u, v), max(u, v)} }
	var even, odd []mlpart.DeltaOp
	for tries := 0; len(even) < count && tries < 100*count; tries++ {
		u := rng.Intn(n)
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		j := rng.Intn(len(nb))
		v, w := nb[j], g.EdgeWeights(u)[j]
		if chosen[key(u, v)] {
			continue
		}
		chosen[key(u, v)] = true
		even = append(even, mlpart.DeltaOp{Op: mlpart.DeltaOpAdd, U: u, V: v, W: w + 1})
		odd = append(odd, mlpart.DeltaOp{Op: mlpart.DeltaOpAdd, U: u, V: v, W: w})
	}
	added := 0
	for tries := 0; added < count && tries < 100*count; tries++ {
		u := rng.Intn(n)
		nb := g.Neighbors(u)
		if len(nb) == 0 {
			continue
		}
		mid := nb[rng.Intn(len(nb))]
		nb2 := g.Neighbors(mid)
		v := nb2[rng.Intn(len(nb2))]
		if v == u || g.HasEdge(u, v) || chosen[key(u, v)] {
			continue
		}
		chosen[key(u, v)] = true
		added++
		even = append(even, mlpart.DeltaOp{Op: mlpart.DeltaOpAdd, U: u, V: v, W: 1})
		odd = append(odd, mlpart.DeltaOp{Op: mlpart.DeltaOpRemove, U: u, V: v})
	}
	return [2][]mlpart.DeltaOp{even, odd}
}

// route maps op i to its session and that session's own op index.
func (f *sessionFixture) route(i int) (*sessionInput, int) {
	return &f.inputs[i%len(f.inputs)], i / len(f.inputs)
}

// prepare creates the sessions from their csrb bodies.
func (f *sessionFixture) prepare(hc *http.Client, base string) error {
	for j := range f.inputs {
		in := &f.inputs[j]
		q := url.Values{"k": {strconv.Itoa(parts)}, "seed": {strconv.FormatInt(in.cfgSeed, 10)}}
		req, err := http.NewRequest(http.MethodPost, base+"/v1/graphs?"+q.Encode(), bytes.NewReader(in.csrb))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", mlpart.ContentTypeBinaryCSR)
		_, body, err := roundTrip(hc, req, http.StatusCreated)
		if err != nil {
			return err
		}
		var st mlpart.SessionResponse
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("decode session: %w", err)
		}
		in.id = st.ID
	}
	return nil
}

func (f *sessionFixture) do(hc *http.Client, base string, i int) *record {
	rec := &record{op: i, http: true}
	in, j := f.route(i)
	body := in.bodies[j%2]
	rec.reqBytes = len(body)
	post, err := http.NewRequest(http.MethodPost, base+"/v1/graphs/"+in.id+"/edges", bytes.NewReader(body))
	if err != nil {
		rec.err = err
		return rec
	}
	post.Header.Set("Content-Type", mlpart.ContentTypeJSON)
	get, err := http.NewRequest(http.MethodGet, base+"/v1/graphs/"+in.id+"?where=1", nil)
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	_, applied, err := roundTrip(hc, post, http.StatusOK)
	var read []byte
	if err == nil {
		_, read, err = roundTrip(hc, get, http.StatusOK)
	}
	rec.latency = time.Since(start)
	rec.end = time.Now()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.respBytes = len(applied) + len(read)
	rec.bodies = [][]byte{applied, read}
	return rec
}

// check replays each session's batches on the benchmark's own copy of its
// graph and re-checks every read against it. Once an op of a session
// fails, that session's state is unknown, so its later ops fail too.
func (f *sessionFixture) check(recs []*record) {
	mirrors := make([]*mirror, len(f.inputs))
	broken := make([]error, len(f.inputs))
	for i, r := range recs {
		s := i % len(f.inputs)
		in, j := f.route(i)
		if mirrors[s] == nil {
			mirrors[s] = newMirror(in.g)
		}
		switch {
		case broken[s] != nil:
			if r.err == nil {
				r.err = fmt.Errorf("not checked: %w", broken[s])
			}
		case r.err != nil:
			broken[s] = fmt.Errorf("op %d failed", r.op)
		case r.op != i:
			r.err = fmt.Errorf("op %d checked at position %d", r.op, i)
			broken[s] = r.err
		default:
			for _, op := range in.batches[j%2] {
				mirrors[s].apply(op)
			}
			if r.err = checkSession(in, j, mirrors[s], r); r.err != nil {
				broken[s] = r.err
			}
		}
	}
}

// checkSession checks the replies of a session's op j against the mirror
// holding the session's graph after that op.
func checkSession(in *sessionInput, j int, m *mirror, r *record) error {
	var applied, read mlpart.SessionResponse
	if err := json.Unmarshal(r.bodies[0], &applied); err != nil {
		return fmt.Errorf("decode delta reply: %w", err)
	}
	if err := json.Unmarshal(r.bodies[1], &read); err != nil {
		return fmt.Errorf("decode read reply: %w", err)
	}
	if applied.ID != in.id || read.ID != in.id {
		return fmt.Errorf("session ids %q, %q, want %q", applied.ID, read.ID, in.id)
	}
	if applied.Deltas != int64(j+1) || read.Deltas != applied.Deltas {
		return fmt.Errorf("deltas %d then %d, want %d", applied.Deltas, read.Deltas, j+1)
	}
	if applied.EdgeCut != read.EdgeCut {
		return fmt.Errorf("delta reply cut %d, read cut %d", applied.EdgeCut, read.EdgeCut)
	}
	n := in.g.NumVertices()
	if read.Kind != mlpart.WireKindSession || read.K != parts || read.Vertices != n || read.Edges != m.edges {
		return fmt.Errorf("read header kind=%q k=%d n=%d m=%d, want %q %d %d %d",
			read.Kind, read.K, read.Vertices, read.Edges, mlpart.WireKindSession, parts, n, m.edges)
	}
	if len(read.Where) != n {
		return fmt.Errorf("len(where) = %d, want %d", len(read.Where), n)
	}
	for v, p := range read.Where {
		if p < 0 || p >= parts {
			return fmt.Errorf("where[%d] = %d, want [0,%d)", v, p, parts)
		}
	}
	cut, pwgt := m.evaluate(read.Where)
	if cut != read.EdgeCut || !slices.Equal(pwgt, read.PartWeights) {
		return fmt.Errorf("reported cut %d, part weights %v; recomputed %d, %v",
			read.EdgeCut, read.PartWeights, cut, pwgt)
	}
	if b := balanceOf(pwgt); math.Abs(b-read.Balance) > 1e-9 {
		return fmt.Errorf("reported balance %v, recomputed %v", read.Balance, b)
	}
	r.cut, r.balance = read.EdgeCut, read.Balance
	return nil
}

func balanceOf(pwgt []int) float64 {
	tot, maxw := 0, 0
	for _, w := range pwgt {
		tot += w
		maxw = max(maxw, w)
	}
	if tot == 0 {
		return 1
	}
	return float64(len(pwgt)) * float64(maxw) / float64(tot)
}

// sessionWire renders a session state as the daemon's reply does.
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

// direct runs op i as the daemon's session handlers do, as direct calls on
// a session manager of its own: delta decode, Manager.Apply, the reply
// encoding, then Manager.Get with the mapping and its encoding.
func (f *sessionFixture) direct(log *eventLog) (func(i int) (*tracedOp, error), error) {
	opts := sessions.Options{}
	if log != nil {
		opts.Tracer = log
	}
	mgr, err := sessions.NewManager(opts)
	if err != nil {
		return nil, err
	}
	for j := range f.inputs {
		in := &f.inputs[j]
		st, err := mgr.Create(in.g, sessions.Config{K: parts, Seed: in.cfgSeed})
		if err != nil {
			return nil, fmt.Errorf("create session: %w", err)
		}
		if st.ID != in.id {
			return nil, fmt.Errorf("session id %q, the daemon's is %q", st.ID, in.id)
		}
	}
	return func(i int) (*tracedOp, error) {
		in, j := f.route(i)
		body := in.bodies[j%2]
		t := newTracedOp(i, log)

		t.begin("graph.ingest")
		var req mlpart.SessionDeltaRequest
		err := json.Unmarshal(body, &req)
		ops := make([]sessions.Op, len(req.Ops))
		for k, op := range req.Ops {
			ops[k] = sessions.Op(op)
		}
		t.end()
		if err != nil {
			return nil, fmt.Errorf("decode delta: %w", err)
		}

		t.begin("sessions.apply")
		st, err := mgr.Apply(in.id, ops)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("apply: %w", err)
		}
		t.begin("service.encode")
		applied, err := json.Marshal(sessionWire(st))
		t.end()
		if err != nil {
			return nil, err
		}

		t.begin("sessions.read")
		st, err = mgr.Get(in.id, true)
		var read []byte
		var enc time.Duration
		if err == nil {
			e0 := time.Now()
			read, err = json.Marshal(sessionWire(st))
			enc = time.Since(e0)
		}
		t.end()
		if err != nil {
			return nil, fmt.Errorf("read: %w", err)
		}
		t.finish()
		t.encode = t.stage("service.encode") + enc
		t.rec.bodies = [][]byte{append(applied, '\n'), append(read, '\n')}
		t.rec.respBytes = len(applied) + len(read) + 2
		return t, nil
	}, nil
}

// sessionDrift is the mean over the sessions of cut over baseline cut
// after the last of ops; ops must end with one op per session.
func sessionDrift(ops []*tracedOp, sessions int) float64 {
	var drifts []float64
	for _, t := range ops[max(len(ops)-sessions, 0):] {
		var st mlpart.SessionResponse
		if len(t.rec.bodies) == 2 && json.Unmarshal(t.rec.bodies[1], &st) == nil && st.BaselineCut > 0 {
			drifts = append(drifts, float64(st.EdgeCut)/float64(st.BaselineCut))
		}
	}
	return mean(drifts)
}

// mirror is the benchmark's own copy of a session graph: the base CSR with
// mutable weights (0 marks a removed edge) plus edges the batches added.
type mirror struct {
	g      *mlpart.Graph
	adjwgt []int
	vwgt   []int
	extra  map[[2]int]int
	edges  int
}

func newMirror(g *mlpart.Graph) *mirror {
	return &mirror{g: g, adjwgt: slices.Clone(g.Adjwgt), vwgt: slices.Clone(g.Vwgt),
		extra: map[[2]int]int{}, edges: g.NumEdges()}
}

// entry is the index of v in u's base adjacency, or -1.
func (m *mirror) entry(u, v int) int {
	for j := m.g.Xadj[u]; j < m.g.Xadj[u+1]; j++ {
		if m.g.Adjncy[j] == v {
			return j
		}
	}
	return -1
}

func (m *mirror) apply(op mlpart.DeltaOp) {
	switch op.Op {
	case mlpart.DeltaOpAdd:
		m.set(op.U, op.V, op.W)
	case mlpart.DeltaOpRemove:
		m.set(op.U, op.V, 0)
	case mlpart.DeltaOpVwgt:
		m.vwgt[op.U] = op.W
	}
}

func (m *mirror) set(u, v, w int) {
	if i := m.entry(u, v); i >= 0 {
		if (m.adjwgt[i] == 0) != (w == 0) {
			if w == 0 {
				m.edges--
			} else {
				m.edges++
			}
		}
		m.adjwgt[i], m.adjwgt[m.entry(v, u)] = w, w
		return
	}
	k := [2]int{min(u, v), max(u, v)}
	_, had := m.extra[k]
	switch {
	case w == 0 && had:
		delete(m.extra, k)
		m.edges--
	case w > 0:
		if !had {
			m.edges++
		}
		m.extra[k] = w
	}
}

// evaluate recomputes the cut and part weights of where on the mirror.
func (m *mirror) evaluate(where []int) (int, []int) {
	pwgt := make([]int, parts)
	cut := 0
	for u := range where {
		pwgt[where[u]] += m.vwgt[u]
		for j := m.g.Xadj[u]; j < m.g.Xadj[u+1]; j++ {
			if v := m.g.Adjncy[j]; u < v && where[u] != where[v] {
				cut += m.adjwgt[j]
			}
		}
	}
	for k, w := range m.extra {
		if where[k[0]] != where[k[1]] {
			cut += w
		}
	}
	return cut, pwgt
}
