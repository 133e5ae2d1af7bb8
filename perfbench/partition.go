package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"mlpart"
	"mlpart/internal/matgen"
)

// Salts separating the seeds derived from one workload seed.
const (
	saltGraph   = -1
	saltBatch   = -2
	saltSession = -3
)

const parts = 32

// graphSeed is the generator seed of a workload's j-th graph.
func graphSeed(seed int64, j int) int64 { return mix(mix(seed, saltGraph), int64(j)) }

// partitionFixture drives POST /v1/partition: a few request graphs (op i
// sends graph i mod len(inputs)), a per-op seed, and either a JSON body
// or a csrb body plus query string.
type partitionFixture struct {
	inputs []partitionInput
	seed   int64
	binary bool
	method string
	preset string
}

// partitionInput is one request graph and its pre-encoded body.
type partitionInput struct {
	g *mlpart.Graph
	// jsonBody holds the JSON request around the per-op seed digits.
	jsonBody [2][]byte
	csrb     []byte
}

// newFE3DJSON is the fe3d-json workload: the FE3D mesh sent as JSON with
// default options apart from the seed.
func newFE3DJSON(sz size, seed int64, inputs int) (fixture, error) {
	f := &partitionFixture{seed: seed}
	for j := 0; j < inputs; j++ {
		g := matgen.FE3DTetra(sz.mesh, sz.mesh, sz.mesh, graphSeed(seed, j))
		wire, err := json.Marshal(mlpart.NewWireGraph(g))
		if err != nil {
			return nil, err
		}
		pre := append([]byte(`{"graph":`), wire...)
		pre = append(pre, fmt.Sprintf(`,"k":%d,"options":{"seed":`, parts)...)
		f.inputs = append(f.inputs, partitionInput{g: g, jsonBody: [2][]byte{pre, []byte("}}")}})
	}
	return f, nil
}

// newSOCCSRBEco is the soc-csrb-eco workload: the SOC power-law graph sent
// as csrb, direct k-way with the eco preset and default refinement.
func newSOCCSRBEco(sz size, seed int64, inputs int) (fixture, error) {
	f := &partitionFixture{seed: seed, binary: true, method: mlpart.MethodKWay, preset: mlpart.PresetEco}
	for j := 0; j < inputs; j++ {
		g := matgen.SocialNetwork(sz.soc, 4, graphSeed(seed, j))
		var buf bytes.Buffer
		if err := mlpart.WriteBinaryGraph(&buf, g); err != nil {
			return nil, err
		}
		f.inputs = append(f.inputs, partitionInput{g: g, csrb: buf.Bytes()})
	}
	return f, nil
}

func (f *partitionFixture) prepare(*http.Client, string) error { return nil }

func (f *partitionFixture) opSeed(i int) int64 { return mix(f.seed, int64(i)) }

func (f *partitionFixture) input(i int) *partitionInput { return &f.inputs[i%len(f.inputs)] }

func (f *partitionFixture) do(hc *http.Client, base string, i int) *record {
	rec := &record{op: i, http: true}
	in := f.input(i)
	seed := strconv.FormatInt(f.opSeed(i), 10)
	var (
		req *http.Request
		err error
	)
	if f.binary {
		q := url.Values{"k": {strconv.Itoa(parts)}, "method": {f.method}, "preset": {f.preset}, "seed": {seed}}
		req, err = http.NewRequest(http.MethodPost, base+"/v1/partition?"+q.Encode(), bytes.NewReader(in.csrb))
		if err == nil {
			req.Header.Set("Content-Type", mlpart.ContentTypeBinaryCSR)
			rec.reqBytes = len(in.csrb)
		}
	} else {
		body := io.MultiReader(bytes.NewReader(in.jsonBody[0]), strings.NewReader(seed), bytes.NewReader(in.jsonBody[1]))
		req, err = http.NewRequest(http.MethodPost, base+"/v1/partition", body)
		if err == nil {
			rec.reqBytes = len(in.jsonBody[0]) + len(seed) + len(in.jsonBody[1])
			req.ContentLength = int64(rec.reqBytes)
			req.Header.Set("Content-Type", mlpart.ContentTypeJSON)
		}
	}
	if err != nil {
		rec.err = err
		return rec
	}
	start := time.Now()
	resp, body, err := roundTrip(hc, req, http.StatusOK)
	rec.latency = time.Since(start)
	rec.end = time.Now()
	if err != nil {
		rec.err = err
		return rec
	}
	rec.respBytes = len(body)
	rec.cache = resp.Header.Get("X-Cache")
	rec.computeNS, _ = strconv.ParseInt(resp.Header.Get("X-Compute-Ns"), 10, 64)
	rec.bodies = [][]byte{body}
	return rec
}

// roundTrip sends req and reads the whole reply, failing on any status
// other than want.
func roundTrip(hc *http.Client, req *http.Request, want int) (*http.Response, []byte, error) {
	resp, err := hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, fmt.Errorf("read reply: %w", err)
	}
	if resp.StatusCode != want {
		if len(body) > 200 {
			body = body[:200]
		}
		return nil, nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, body)
	}
	return resp, body, nil
}

// check verifies each reply against a from-scratch evaluation of its
// partition vector on the request graph.
func (f *partitionFixture) check(recs []*record) {
	for _, r := range recs {
		if r.err == nil {
			r.err = f.checkOne(r)
		}
	}
}

func (f *partitionFixture) checkOne(r *record) error {
	if r.http && r.cache != "miss" {
		return fmt.Errorf("X-Cache %q, want miss: op seeds must never repeat", r.cache)
	}
	var resp mlpart.PartitionResponse
	if err := json.Unmarshal(r.bodies[0], &resp); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	g := f.input(r.op).g
	n := g.NumVertices()
	if resp.Kind != mlpart.WireKindResult || resp.K != parts || resp.Vertices != n || resp.Edges != g.NumEdges() {
		return fmt.Errorf("reply header kind=%q k=%d n=%d m=%d, want %q %d %d %d",
			resp.Kind, resp.K, resp.Vertices, resp.Edges, mlpart.WireKindResult, parts, n, g.NumEdges())
	}
	if len(resp.Where) != n {
		return fmt.Errorf("len(where) = %d, want %d", len(resp.Where), n)
	}
	for v, p := range resp.Where {
		if p < 0 || p >= parts {
			return fmt.Errorf("where[%d] = %d, want [0,%d)", v, p, parts)
		}
	}
	rep, err := mlpart.EvaluatePartition(g, resp.Where, parts)
	if err != nil {
		return err
	}
	if rep.EdgeCut != resp.EdgeCut || !slices.Equal(rep.PartWeights, resp.PartWeights) {
		return fmt.Errorf("reported cut %d, part weights %v; recomputed %d, %v",
			resp.EdgeCut, resp.PartWeights, rep.EdgeCut, rep.PartWeights)
	}
	if math.Abs(rep.Balance-resp.Balance) > 1e-9 {
		return fmt.Errorf("reported balance %v, recomputed %v", resp.Balance, rep.Balance)
	}
	r.cut, r.balance = resp.EdgeCut, resp.Balance
	return nil
}

// direct runs op i the way the daemon's partition handler does, as direct
// calls: decode and validate, fingerprint (the cache key), the engine,
// and the response encoding.
func (f *partitionFixture) direct(log *eventLog) (func(i int) (*tracedOp, error), error) {
	var buf []byte
	return func(i int) (*tracedOp, error) {
		seed := f.opSeed(i)
		in := f.input(i)
		body := in.csrb
		if !f.binary {
			buf = append(buf[:0], in.jsonBody[0]...)
			buf = strconv.AppendInt(buf, seed, 10)
			buf = append(buf, in.jsonBody[1]...)
			body = buf
		}
		t := newTracedOp(i, log)

		var (
			g    *mlpart.Graph
			opts *mlpart.Options
			err  error
		)
		t.begin("graph.ingest")
		if f.binary {
			g, err = mlpart.DecodeBinaryGraph(body)
			opts = &mlpart.Options{Seed: seed, Preset: f.preset}
		} else {
			var req mlpart.PartitionRequest
			if err = json.Unmarshal(body, &req); err == nil {
				g, err = req.Graph.ToGraph()
			}
			opts = req.Options
		}
		if err == nil {
			err = opts.Validate()
		}
		t.end()
		if err != nil {
			return nil, fmt.Errorf("ingest: %w", err)
		}

		t.begin("graph.fingerprint")
		t.fingerprint = g.Fingerprint()
		t.end()

		t.begin("multilevel.compute")
		if log != nil {
			opts.Tracer = log
		}
		var res *mlpart.Partitioning
		if f.method == mlpart.MethodKWay {
			res, err = mlpart.PartitionDirectKWayCtx(context.Background(), g, parts, opts)
		} else {
			res, err = mlpart.PartitionCtx(context.Background(), g, parts, opts)
		}
		t.end()
		if err != nil {
			return nil, fmt.Errorf("partition: %w", err)
		}

		t.begin("service.encode")
		out, err := json.Marshal(&mlpart.PartitionResponse{
			Kind:          mlpart.WireKindResult,
			SchemaVersion: mlpart.SchemaVersion,
			Vertices:      g.NumVertices(),
			Edges:         g.NumEdges(),
			K:             parts,
			EdgeCut:       res.EdgeCut,
			Balance:       res.Balance(),
			PartWeights:   res.PartWeights,
			Where:         res.Where,
			Cycles:        res.Cycles,
			Degradations:  res.Degradations,
		})
		t.end()
		if err != nil {
			return nil, fmt.Errorf("encode: %w", err)
		}
		t.finish()
		t.encode = t.stage("service.encode")
		t.rec.bodies = [][]byte{append(out, '\n')}
		t.rec.respBytes = len(out) + 1
		return t, nil
	}, nil
}
