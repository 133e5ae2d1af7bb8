package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"mlpart"
	"mlpart/internal/matgen"
)

// checkDecodeJSON asserts that decodeJSON returns exactly what the stdlib
// decoder returns for data — the same value and the same error text — for
// every request type whose JSON body carries a graph.
func checkDecodeJSON(t *testing.T, data []byte) {
	t.Helper()
	checkDecodeJSONAs(t, data, func(r *mlpart.PartitionRequest) *mlpart.WireGraph { return &r.Graph })
	checkDecodeJSONAs(t, data, func(r *mlpart.OrderRequest) *mlpart.WireGraph { return &r.Graph })
	checkDecodeJSONAs(t, data, func(r *mlpart.RepartitionRequest) *mlpart.WireGraph { return &r.Graph })
	checkDecodeJSONAs(t, data, func(r *mlpart.SessionCreateRequest) *mlpart.WireGraph { return &r.Graph })
	// No slice's capacity outgrows the body it came from.
	if wg, _, ok := scanGraph(data); ok {
		for _, xs := range [][]int{wg.Xadj, wg.Adjncy, wg.Adjwgt, wg.Vwgt} {
			if cap(xs) > len(data) {
				t.Fatalf("%q: slice capacity %d exceeds the %d-byte body", data, cap(xs), len(data))
			}
		}
	}
}

func checkDecodeJSONAs[R any](t *testing.T, data []byte, graphOf func(*R) *mlpart.WireGraph) {
	t.Helper()
	var want R
	wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
	got, err := decodeJSON(data, graphOf)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%T %q: error %v, stdlib %v", want, data, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%T %q: decoded %+v, stdlib %+v", want, data, got, want)
	}
}

// scanned reports whether decodeJSON takes the scanning path for a
// PartitionRequest body rather than falling back to the stdlib decoder.
func scanned(data []byte) bool {
	_, rest, ok := scanGraph(data)
	return ok && json.Unmarshal(rest, new(mlpart.PartitionRequest)) == nil
}

const canonicalGraph = `{"xadj":[0,2,4,6,8],"adjncy":[1,3,0,2,1,3,0,2],"adjwgt":[1,2,1,3,3,4,2,4],"vwgt":[1,1,2,1]}`

// decodeJSONCases are the differential inputs: scan says whether the
// scanning path must accept the body (false: it must fall back).
var decodeJSONCases = []struct {
	name string
	body string
	scan bool
}{
	{"canonical", `{"graph":` + canonicalGraph + `,"k":2}`, true},
	{"options", `{"graph":` + canonicalGraph + `,"k":4,"method":"kway","options":{"seed":7,"matching":"H\"}EM","coarsening":{"scheme":"GCLP"}},"timeout_ms":50}`, true},
	{"graph last", `{"k":2,"fractions":[1,2.5],"graph":` + canonicalGraph + `}`, true},
	{"graph middle", `{"k":2,"graph":` + canonicalGraph + `,"where":[0,1,0,1]}`, true},
	{"whitespace", " \r\n\t{ \"graph\" :\n{ \"xadj\" : [ 0 , 1 , 2 ] ,\t\"adjncy\":[1,0] } , \"k\" : 2 } \n", true},
	{"no separators", `{"graph":{"xadj":[0,1,2],"adjncy":[1,0]}}`, true},
	{"xadj last", `{"graph":{"adjncy":[1,0],"adjwgt":[5,5],"xadj":[0,1,2]},"k":1}`, true},
	{"empty graph", `{"graph":{},"k":2}`, true},
	{"null arrays", `{"graph":{"xadj":null,"adjncy":null,"adjwgt":null,"vwgt":null}}`, true},
	{"empty arrays", `{"graph":{"xadj":[],"adjncy":[ ],"adjwgt":[],"vwgt":[]}}`, true},
	{"negative zero", `{"graph":{"xadj":[-0,1,2],"adjncy":[1,-0]}}`, true},
	{"negatives", `{"graph":{"xadj":[0,-1,2],"adjncy":[-17,0],"vwgt":[-999999999999999999,0]}}`, true},
	{"18 digits", `{"graph":{"xadj":[0,999999999999999999]}}`, true},
	{"capacity bomb", `{"graph":{"xadj":[0,999999999999],"adjncy":[1],"adjwgt":[1],"vwgt":[1]}}`, true},
	{"negative hint", `{"graph":{"xadj":[0,-5],"adjncy":[1]}}`, true},
	{"unknown top-level key", `{"graph":{"xadj":[0]},"extra":{"a":[1,{"b":"}"}]}}`, true},

	{"Graph", `{"Graph":` + canonicalGraph + `}`, false},
	{"GRAPH after graph", `{"graph":` + canonicalGraph + `,"GRAPH":{"xadj":[0]}}`, false},
	{"escaped graph key", `{"gr\u0061ph":` + canonicalGraph + `}`, false},
	{"escaped other key", `{"\u006b":2,"graph":` + canonicalGraph + `}`, false},
	{"escaped kelvin key", `{"\u212a":2,"graph":` + canonicalGraph + `}`, false},
	{"kelvin sign key", `{"graph":` + canonicalGraph + `,"` + "\u212a" + `":3}`, false},
	{"XADJ", `{"graph":{"XADJ":[0,1,2],"adjncy":[1,0]}}`, false},
	{"Xadj", `{"graph":{"Xadj":[0,1,2],"adjncy":[1,0]}}`, false},
	{"escaped graph field", `{"graph":{"x\u0061dj":[0,1,2]}}`, false},
	{"duplicate graph", `{"graph":` + canonicalGraph + `,"graph":{"xadj":[0,1]}}`, false},
	{"duplicate xadj", `{"graph":{"xadj":[0,1,2],"xadj":[0]}}`, false},
	{"unknown graph key", `{"graph":{"xadj":[0,1,2],"nvtxs":2}}`, false},
	{"float", `{"graph":{"xadj":[0,1.5]}}`, false},
	{"float zero", `{"graph":{"xadj":[0.0]}}`, false},
	{"exponent", `{"graph":{"xadj":[0,1e3]}}`, false},
	{"Exponent", `{"graph":{"xadj":[0,1E3]}}`, false},
	{"leading zero", `{"graph":{"xadj":[0,01]}}`, false},
	{"negative leading zero", `{"graph":{"xadj":[-01]}}`, false},
	{"double zero", `{"graph":{"xadj":[00]}}`, false},
	{"19 digits", `{"graph":{"xadj":[0,1000000000000000000]}}`, false},
	{"overflow", `{"graph":{"xadj":[0,99999999999999999999]}}`, false},
	{"bare minus", `{"graph":{"xadj":[-]}}`, false},
	{"plus sign", `{"graph":{"xadj":[+1]}}`, false},
	{"string element", `{"graph":{"xadj":["1"]}}`, false},
	{"nested array", `{"graph":{"xadj":[[1]]}}`, false},
	{"trailing comma in array", `{"graph":{"xadj":[0,1,]}}`, false},
	{"trailing comma in graph", `{"graph":{"xadj":[0,1],}}`, false},
	{"nul", `{"graph":{"xadj":nul}}`, false},
	{"graph null", `{"graph":null,"k":2}`, false},
	{"graph array", `{"graph":[0,1],"k":2}`, false},
	{"no graph", `{"k":2}`, false},
	{"empty object", `{}`, false},
	{"array body", `[{"graph":{}}]`, false},
	{"null body", `null`, false},
	{"string body", `"graph"`, false},
	{"number body", `42`, false},
	{"empty body", ``, false},
	{"whitespace body", " \n", false},
	{"trailing bytes", `{"graph":` + canonicalGraph + `} x`, false},
	{"two objects", `{"graph":{"xadj":[0]}}{"k":2}`, false},
	{"remainder type error", `{"graph":` + canonicalGraph + `,"k":"2"}`, false},
	{"remainder syntax error", `{"graph":` + canonicalGraph + `,"k":tru}`, false},
	{"remainder trailing comma", `{"graph":` + canonicalGraph + `,"k":2,}`, false},
	{"missing value", `{"k":,"graph":` + canonicalGraph + `}`, false},
	{"missing colon", `{"k" 2,"graph":` + canonicalGraph + `}`, false},
	{"unterminated string", `{"method":"kway,"graph":` + canonicalGraph + `}`, false},
}

func TestDecodeJSONMatchesStdlib(t *testing.T) {
	for _, tc := range decodeJSONCases {
		t.Run(tc.name, func(t *testing.T) {
			data := []byte(tc.body)
			if got := scanned(data); got != tc.scan {
				t.Errorf("scanning path taken = %t, want %t", got, tc.scan)
			}
			checkDecodeJSON(t, data)
		})
	}

	// Real request bodies as json.Marshal writes them scan, and every
	// truncation of one falls back.
	wg := gridGraph(4, 5)
	wg.Vwgt[3] = 7
	for _, req := range []any{
		mlpart.PartitionRequest{Graph: wg, K: 3, Options: &mlpart.Options{Seed: 5, Preset: mlpart.PresetEco}},
		mlpart.RepartitionRequest{Graph: wg, K: 2, Where: make([]int, 20), Options: &mlpart.RepartitionOptions{Ubfactor: 1.1}},
		mlpart.SessionCreateRequest{Graph: wg, K: 4, Seed: 3},
	} {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if !scanned(data) {
			t.Errorf("%T body not scanned", req)
		}
		for i := 0; i <= len(data); i++ {
			if i < len(data) && scanned(data[:i]) {
				t.Errorf("%T truncated to %d bytes was scanned", req, i)
			}
			checkDecodeJSON(t, data[:i])
		}
	}
}

// TestDecodeJSONCapacityBomb pins the allocation bound: a tiny body whose
// xadj claims a trillion edges sizes adjncy and adjwgt by their own
// elements, not by the claim.
func TestDecodeJSONCapacityBomb(t *testing.T) {
	data := []byte(`{"graph":{"xadj":[0,999999999999],"adjncy":[1],"adjwgt":[1],"vwgt":[1]}}`)
	wg, _, ok := scanGraph(data)
	if !ok {
		t.Fatal("bomb body not scanned")
	}
	if limit := len(data)/2 + 1; cap(wg.Adjncy) > limit || cap(wg.Adjwgt) > limit {
		t.Errorf("adjncy/adjwgt capacity %d/%d, want <= %d", cap(wg.Adjncy), cap(wg.Adjwgt), limit)
	}
}

// TestDecodeJSONAllocBound pins the bytes one JSON partition request costs
// to decode and validate (decodeJSON, then WireGraph.ToGraph), in the
// fe3d-json benchmark's body shape on a smaller mesh: a 20x20x20 FE3D
// graph, k=32, a 545 KB body. Measured on go1.24 linux/amd64: 1,264 KB on
// the scanning path, 8,836 KB through encoding/json alone. The bound sits 5% above the first figure, the
// alloc_mb_per_op tolerance of the benchmark, so a change that falls back
// to the stdlib decoder, or regrows an array, fails it.
func TestDecodeJSONAllocBound(t *testing.T) {
	g := matgen.FE3DTetra(20, 20, 20, 1)
	body, err := json.Marshal(mlpart.PartitionRequest{Graph: *mlpart.NewWireGraph(g), K: 32, Options: &mlpart.Options{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	ingest := func() {
		req, err := decodeJSON(body, func(r *mlpart.PartitionRequest) *mlpart.WireGraph { return &r.Graph })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := req.Graph.ToGraph(); err != nil {
			t.Fatal(err)
		}
	}
	ingest()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		ingest()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d KB body: %d KB per request", len(body)>>10, got>>10)
	const bound = 1327 << 10
	if got > bound {
		t.Errorf("%d KB per request, bound %d KB", got>>10, bound>>10)
	}
}

func FuzzDecodeJSONRequest(f *testing.F) {
	for _, tc := range decodeJSONCases {
		f.Add([]byte(tc.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeJSON(t, data)
	})
}

// TestBodyLimitReadsWholeBody pins the body limit: a body is read in full
// before decoding, so a complete object followed by padding past the
// limit is refused even though the object itself ends inside it.
func TestBodyLimitReadsWholeBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 4096})
	body, err := json.Marshal(mlpart.PartitionRequest{Graph: gridGraph(3, 3), K: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		pad  int
		want int
	}{{0, http.StatusOK}, {8192, http.StatusBadRequest}} {
		padded := append(append([]byte(nil), body...), strings.Repeat(" ", tc.pad)...)
		resp, err := ts.Client().Post(ts.URL+"/v1/partition", mlpart.ContentTypeJSON, bytes.NewReader(padded))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%d-byte body: status %d, want %d", len(padded), resp.StatusCode, tc.want)
		}
	}
}

// trickleBody serves body in pieces of at most piece bytes, then fails
// with err, recording the largest buffer any Read was offered.
type trickleBody struct {
	body    []byte
	piece   int
	err     error
	maxRead int
}

func (b *trickleBody) Read(p []byte) (int, error) {
	b.maxRead = max(b.maxRead, len(p))
	if len(b.body) == 0 {
		return 0, b.err
	}
	n := copy(p[:min(len(p), b.piece)], b.body)
	b.body = b.body[n:]
	return n, nil
}

func (b *trickleBody) Close() error { return nil }

// TestReadBodyFollowsBytesReceived pins readBody's memory bound: a body
// that declares the full default limit but sends 4 KiB before the
// connection drops never gets a buffer near the declared size, while a
// body that does arrive in full is read into one buffer of its
// declared length.
func TestReadBodyFollowsBytesReceived(t *testing.T) {
	const limit = 64 << 20
	read := func(tb *trickleBody, cl int64) ([]byte, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/partition", nil)
		r.Body, r.ContentLength = tb, cl
		return readBody(httptest.NewRecorder(), r, limit)
	}

	short := &trickleBody{body: make([]byte, 4<<10), piece: 1 << 10, err: io.ErrUnexpectedEOF}
	if _, err := read(short, limit); err != io.ErrUnexpectedEOF {
		t.Fatalf("short body: err %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if short.maxRead > 64<<10 {
		t.Errorf("short body: a %d-byte read buffer for 4 KiB received", short.maxRead)
	}

	const cl = 1 << 20
	want := bytes.Repeat([]byte("0123456789abcdef"), cl/16)
	full := &trickleBody{body: want, piece: 4 << 10, err: io.EOF}
	got, err := read(full, cl)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("full body read back differently")
	}
	if cap(got) > cl+bytes.MinRead {
		t.Errorf("full body: buffer capacity %d, want <= %d", cap(got), cl+bytes.MinRead)
	}
}

// TestReadBodyAllocBound pins what readBody allocates for a body that
// arrives in full: the kept chunks of its first half plus the one buffer
// of its declared length, about 1.5 times the body. The 1.6 bound fails a
// buffer regrown over the first half, which costs 3 times here.
func TestReadBodyAllocBound(t *testing.T) {
	const cl = 4 << 20
	want := bytes.Repeat([]byte("0123456789abcdef"), cl/16)
	read := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/partition", nil)
		r.Body, r.ContentLength = &trickleBody{body: want, piece: 4 << 10, err: io.EOF}, cl
		got, err := readBody(httptest.NewRecorder(), r, 64<<20)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read back %d bytes, err %v", len(got), err)
		}
	}
	read()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d KB body: %d KB allocated (%.2fx)", cl>>10, got>>10, float64(got)/cl)
	if bound := uint64(cl) * 16 / 10; got > bound {
		t.Errorf("%d KB allocated for a %d KB body, bound %d KB", got>>10, cl>>10, bound>>10)
	}
}

// TestBadGraphErrorText pins the 400 text of JSON bodies whose graph is
// invalid. Graphs are validated by one linear pass, and Validate runs
// only to word the error of a graph that fails it, so each text is the
// one Validate gave before: asymmetric structure and weights, out-of-range
// and negative neighbours, a self loop, zero edge and vertex weights, a
// decreasing Xadj and an empty one. The 65,536-vertex star, whose only
// asymmetric edge joins its last two leaves, is the worst case for a
// Validate that searches the hub's list once per leaf.
func TestBadGraphErrorText(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct {
		g    mlpart.WireGraph
		want string
	}{
		{mlpart.WireGraph{Xadj: []int{0, 1, 2, 2}, Adjncy: []int{1, 2}}, "asymmetric edge (0,1): 1 vs 0"},
		{mlpart.WireGraph{Xadj: []int{0, 1, 2}, Adjncy: []int{1, 0}, Adjwgt: []int{2, 3}}, "asymmetric edge (0,1): 2 vs 3"},
		{mlpart.WireGraph{Xadj: []int{0, 1, 2}, Adjncy: []int{5, 0}}, "edge (0,5) out of range"},
		{mlpart.WireGraph{Xadj: []int{0, 1, 2}, Adjncy: []int{-1, 0}}, "edge (0,-1) out of range"},
		{mlpart.WireGraph{Xadj: []int{0, 2, 4}, Adjncy: []int{0, 1, 0, 1}}, "self loop at 0"},
		{mlpart.WireGraph{Xadj: []int{0, 1, 2}, Adjncy: []int{1, 0}, Adjwgt: []int{0, 0}}, "edge (0,1) weight 0, want > 0"},
		{mlpart.WireGraph{Xadj: []int{0, 1, 2}, Adjncy: []int{1, 0}, Vwgt: []int{1, 0}}, "Vwgt[1] = 0, want > 0"},
		{mlpart.WireGraph{Xadj: []int{0, 2, 1, 2}, Adjncy: []int{1, 0}}, "Xadj decreasing at 1"},
		{asymmetricStar(300), "asymmetric edge (0,299): 1 vs 2"},
		{leafAsymmetricStar(1 << 16), "asymmetric edge (65534,65535): 1 vs 2"},
		// Before, an empty Xadj panicked the handler (unit weights were
		// allocated for n = -1 before validation).
		{mlpart.WireGraph{}, "Xadj must have length >= 1"},
	} {
		resp, body := postJSON(t, ts.Client(), ts.URL+"/v1/partition", mlpart.PartitionRequest{Graph: tc.g, K: 2})
		var got struct{ Error string }
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if want := "bad graph: graph: " + tc.want; resp.StatusCode != http.StatusBadRequest || got.Error != want {
			t.Errorf("status %d, error %q; want 400, %q", resp.StatusCode, got.Error, want)
		}
	}
}

// asymmetricStar is a star with hub 0 and n-1 leaves in which the last
// leaf lists the hub with weight 2 while the hub lists it with weight 1.
func asymmetricStar(n int) mlpart.WireGraph {
	wg := starWire(n)
	wg.Adjwgt[len(wg.Adjwgt)-1] = 2
	return wg
}

// leafAsymmetricStar is a star with hub 0 and n-1 leaves plus an edge
// between the last two leaves, listed with weight 1 by the first and 2
// by the second.
func leafAsymmetricStar(n int) mlpart.WireGraph {
	b := mlpart.NewGraphBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	b.AddEdge(n-2, n-1)
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	wg := *mlpart.NewWireGraph(g)
	wg.Adjwgt[len(wg.Adjwgt)-1] = 2
	return wg
}

// starWire is a star with hub 0 and n-1 leaves: the hub's degree is
// n-1, the most a graph of n vertices can have.
func starWire(n int) mlpart.WireGraph {
	b := mlpart.NewGraphBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(0, v)
	}
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return *mlpart.NewWireGraph(g)
}
