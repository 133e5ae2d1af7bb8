package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mlpart"
)

// param sets one request field both ways: as the query string of a csrb
// request and as members of the equivalent JSON body. Each value is valid
// and differs from the default, so a dropped or misrouted parameter shows.
type param struct{ query, json string }

// optionParams covers every Options field a query carries. The GCLP
// knobs need the GCLP scheme; names may be spelled in any case.
var optionParams = map[string]param{
	"matching":              {"matching=lem", `"options":{"matching":"lem"}`},
	"coarsening":            {"coarsening=GCLP", `"options":{"coarsening":{"scheme":"GCLP"}}`},
	"max_cluster_weight":    {"coarsening=GCLP&max_cluster_weight=8", `"options":{"coarsening":{"scheme":"GCLP","max_cluster_weight":8}}`},
	"lp_rounds":             {"coarsening=GCLP&lp_rounds=3", `"options":{"coarsening":{"scheme":"GCLP","lp_rounds":3}}`},
	"init_part":             {"init_part=GGP", `"options":{"init_part":"GGP"}`},
	"refinement":            {"refinement=BGR", `"options":{"refinement":"BGR"}`},
	"coarsen_to":            {"coarsen_to=50", `"options":{"coarsen_to":50}`},
	"ubfactor":              {"ubfactor=1.25", `"options":{"ubfactor":1.25}`},
	"seed":                  {"seed=7", `"options":{"seed":7}`},
	"parallel":              {"parallel=true", `"options":{"parallel":true}`},
	"parallel_depth":        {"parallel_depth=2", `"options":{"parallel_depth":2}`},
	"parallel_min_vertices": {"parallel_min_vertices=100", `"options":{"parallel_min_vertices":100}`},
	"kway_refine":           {"kway_refine=true", `"options":{"kway_refine":true}`},
	"ncuts":                 {"ncuts=2", `"options":{"ncuts":2}`},
	"coarsen_workers":       {"coarsen_workers=2", `"options":{"coarsen_workers":2}`},
	"refine_workers":        {"refine_workers=2", `"options":{"refine_workers":2}`},
	"preset":                {"preset=ECO", `"options":{"preset":"ECO"}`},
	"cycles":                {"cycles=3", `"options":{"cycles":3}`},
	"ordering":              {"ordering=degree", `"options":{"ordering":"degree"}`},
	"compress_graph":        {"compress_graph=true", `"options":{"compress_graph":true}`},
}

// withParams merges extra into a copy of base.
func withParams(base map[string]param, extra map[string]param) map[string]param {
	out := map[string]param{}
	for _, m := range []map[string]param{base, extra} {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

// endpointParams pins each endpoint's accepted query parameters: exactly
// the keys of its map, no more and no fewer.
var endpointParams = map[string]map[string]param{
	mlpart.JobTypePartition: withParams(optionParams, map[string]param{
		"k":          {"k=4", `"k":4`},
		"fractions":  {"fractions=2,1,1", `"fractions":[2,1,1]`},
		"method":     {"method=kway", `"method":"kway"`},
		"timeout_ms": {"timeout_ms=5000", `"timeout_ms":5000`},
	}),
	mlpart.JobTypeOrder: withParams(optionParams, map[string]param{
		"analyze":    {"analyze=true", `"analyze":true`},
		"timeout_ms": {"timeout_ms=5000", `"timeout_ms":5000`},
	}),
	mlpart.JobTypeRepartition: {
		"k":                {"k=3", `"k":3`},
		"ubfactor":         {"ubfactor=1.25", `"options":{"ubfactor":1.25}`},
		"migration_weight": {"migration_weight=2.5", `"options":{"migration_weight":2.5}`},
		"seed":             {"seed=7", `"options":{"seed":7}`},
		"timeout_ms":       {"timeout_ms=5000", `"timeout_ms":5000`},
	},
	"session": {
		"k":        {"k=3", `"k":3`},
		"seed":     {"seed=7", `"seed":7`},
		"ubfactor": {"ubfactor=1.25", `"ubfactor":1.25`},
	},
}

// requestTypes maps each endpoint of endpointParams to its request type.
var requestTypes = map[string]reflect.Type{
	mlpart.JobTypePartition:   reflect.TypeOf(mlpart.PartitionRequest{}),
	mlpart.JobTypeOrder:       reflect.TypeOf(mlpart.OrderRequest{}),
	mlpart.JobTypeRepartition: reflect.TypeOf(mlpart.RepartitionRequest{}),
	"session":                 reflect.TypeOf(mlpart.SessionCreateRequest{}),
}

// fieldNames lists every field name of struct type t and the structs
// behind its pointer fields, as a query might spell it: the JSON tag,
// the query tag and the lower-cased Go name.
func fieldNames(t reflect.Type) []string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		tag, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		names = append(names, tag, f.Tag.Get("query"), strings.ToLower(f.Name))
		if f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct {
			names = append(names, fieldNames(f.Type.Elem())...)
		}
	}
	return names
}

// decodeBoth decodes one request of endpoint typ twice, as a JSON body
// with the extra member and as a csrb body with the extra query, and
// returns the two jobs' cache keys and requests with the graph cleared
// (the encodings carry it differently).
func decodeBoth(t *testing.T, typ, query, member string) (keys [2]string, reqs [2]any) {
	t.Helper()
	wg := gridGraph(6, 6)
	graph, _ := json.Marshal(wg)
	members, params := []string{`"graph":` + string(graph)}, []string{}
	if !strings.HasPrefix(query, "k=") {
		members, params = append(members, `"k":2`), append(params, "k=2")
	}
	var part []int
	if typ == mlpart.JobTypeRepartition {
		part = alternating(36, 2)
		where, _ := json.Marshal(part)
		members = append(members, `"where":`+string(where))
	}
	if member != "" {
		members = append(members, member)
	}
	if query != "" {
		params = append(params, query)
	}
	body := "{" + strings.Join(members, ",") + "}"
	q, err := url.ParseQuery(strings.Join(params, "&"))
	if err != nil {
		t.Fatal(err)
	}
	csrb := binaryBody(t, wg, part)

	if typ == "session" {
		i := 0
		c := createCodec(func(req mlpart.SessionCreateRequest, _ *mlpart.Graph) (job, error) {
			req.Graph = mlpart.WireGraph{}
			reqs[i] = req
			i++
			return nil, nil
		})
		if _, err := c.json([]byte(body)); err != nil {
			t.Fatalf("json %s: %v", body, err)
		}
		if _, err := c.binary(csrb, q); err != nil {
			t.Fatalf("query %s: %v", q.Encode(), err)
		}
		return keys, reqs
	}
	jj, err := codecs[typ].json([]byte(body))
	if err != nil {
		t.Fatalf("json %s: %v", body, err)
	}
	jb, err := codecs[typ].binary(csrb, q)
	if err != nil {
		t.Fatalf("query %s: %v", q.Encode(), err)
	}
	for i, j := range []job{jj, jb} {
		keys[i] = j.key()
		switch j := j.(type) {
		case *partitionJob:
			r := j.req
			r.Graph = mlpart.WireGraph{}
			reqs[i] = r
		case *orderJob:
			r := j.req
			r.Graph = mlpart.WireGraph{}
			reqs[i] = r
		case *repartitionJob:
			r := j.req
			r.Graph = mlpart.WireGraph{}
			reqs[i] = r
		}
	}
	return keys, reqs
}

// TestQueryJSONParity sets every query-carried field of each request type
// once as a query parameter and once in a JSON body: the two must decode
// to the same request and build the same job key. Every other name a
// request type's fields go by — the graph, where, the json:"-" fields —
// must be ignored in a query.
func TestQueryJSONParity(t *testing.T) {
	for typ, params := range endpointParams {
		_, bare := decodeBoth(t, typ, "", "")
		for name, p := range params {
			keys, reqs := decodeBoth(t, typ, p.query, p.json)
			if keys[0] != keys[1] {
				t.Errorf("%s %s: JSON key %q, query key %q", typ, name, keys[0], keys[1])
			}
			if !reflect.DeepEqual(reqs[0], reqs[1]) {
				t.Errorf("%s %s: JSON decodes %+v, query %+v", typ, name, reqs[0], reqs[1])
			}
			// The parameter took effect: it differs from the bare request.
			if reflect.DeepEqual(reqs[1], bare[1]) {
				t.Errorf("%s %s: query %q changed nothing", typ, name, p.query)
			}
		}

		for _, name := range fieldNames(requestTypes[typ]) {
			if _, ok := params[name]; ok || name == "" {
				continue
			}
			_, reqs := decodeBoth(t, typ, url.Values{name: {"1"}}.Encode(), "")
			if !reflect.DeepEqual(reqs[1], bare[1]) {
				t.Errorf("%s: query parameter %q was read: %+v", typ, name, reqs[1])
			}
		}
	}
}

// TestQueryErrorsDeterministic sends one csrb request with four malformed
// parameters many times: every reply is the same 400, naming all four in
// field order.
func TestQueryErrorsDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := binaryBody(t, gridGraph(4, 4), nil)
	const want = `query k="x": not an integer; query ubfactor="w": not a number; ` +
		`query seed="z": not an integer; query timeout_ms="y": not an integer`
	var first string
	for i := 0; i < 50; i++ {
		resp, data := postBinary(t, ts.Client(), ts.URL+"/v1/partition?k=x&seed=z&ubfactor=w&timeout_ms=y", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400: %s", resp.StatusCode, data)
		}
		if i == 0 {
			first = string(data)
			var er mlpart.ErrorResponse
			if err := json.Unmarshal(data, &er); err != nil {
				t.Fatal(err)
			}
			if er.Error != want {
				t.Fatalf("error %q, want %q", er.Error, want)
			}
		} else if string(data) != first {
			t.Fatalf("reply %d differs:\n%s\nfirst:\n%s", i, data, first)
		}
	}
}

// TestBadOptionsNameEveryField sends JSON bodies with bad options: one
// with three bad fields gets one 400 naming all three, and a single bad
// field keeps the text it had when validation stopped at the first.
func TestBadOptionsNameEveryField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ options, want string }{
		{`{"refinement":"FMPP","ncuts":-1,"coarsen_to":-5}`, `bad options: mlpart: refine: unknown refinement policy "FMPP" (want NONE, GR, KLR, BGR, BKLR, BKLGR or BKWAY); ` +
			`multilevel: CoarsenTo = -5, want >= 0; NCuts = -1, want >= 0`},
		{`{"ncuts":-1}`, `bad options: mlpart: multilevel: NCuts = -1, want >= 0`},
	} {
		body := `{"graph":{"xadj":[0,0],"adjncy":[]},"k":1,"options":` + tc.options + `}`
		resp, err := ts.Client().Post(ts.URL+"/v1/partition", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var er mlpart.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || er.Error != tc.want {
			t.Errorf("%s: status %d, error %q (%v); want 400, %q", tc.options, resp.StatusCode, er.Error, err, tc.want)
		}
	}
}

// TestQueryRejectsWhatJSONCannotCarry pins the values a query may not set
// because a JSON body could not carry them either.
func TestQueryRejectsWhatJSONCannotCarry(t *testing.T) {
	for raw, want := range map[string]string{
		"ubfactor=NaN":           `query ubfactor="NaN": not a number`,
		"ubfactor=-Inf":          `query ubfactor="-Inf": not a number`,
		"fractions=1,Inf":        `query fractions="1,Inf": bad number "Inf"`,
		"fractions=1,,2":         `query fractions="1,,2": bad number ""`,
		"method=%ff":             `query method="\xff": not valid UTF-8`,
		"k=99999999999999999999": `query k="99999999999999999999": not an integer`,
	} {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		var req mlpart.PartitionRequest
		if err := queryInto(q, &req); fmt.Sprint(err) != want {
			t.Errorf("%s: error %v, want %s", raw, err, want)
		}
	}
}

// checkQueryInto holds queryInto's contract for request type R on q: the
// same error on a second call, no json:"-" field set, and on success a
// request that survives the JSON wire unchanged.
func checkQueryInto[R any](t *testing.T, q url.Values, graphOf func(*R) *mlpart.WireGraph) {
	t.Helper()
	var req, again R
	err := queryInto(q, &req)
	if err2 := queryInto(q, &again); fmt.Sprint(err) != fmt.Sprint(err2) || !reflect.DeepEqual(req, again) {
		t.Fatalf("%T %q: second call gave %v / %+v, first %v / %+v", req, q.Encode(), err2, again, err, req)
	}
	if name := setHiddenField(reflect.ValueOf(req)); name != "" {
		t.Fatalf("%T %q: json:\"-\" field %s was set", req, q.Encode(), name)
	}
	if err != nil {
		return
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("%T %q: marshal %+v: %v", req, q.Encode(), req, err)
	}
	back, err := decodeJSON(data, graphOf)
	if err != nil {
		t.Fatalf("%T %q: decode %s: %v", req, q.Encode(), data, err)
	}
	if !reflect.DeepEqual(back, req) {
		t.Fatalf("%T %q: JSON round trip %+v, want %+v", req, q.Encode(), back, req)
	}
}

// setHiddenField returns the name of a non-zero json:"-" field of struct
// v or of a struct behind one of its pointer fields, or "".
func setHiddenField(v reflect.Value) string {
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case f.Tag.Get("json") == "-" && !fv.IsZero():
			return f.Name
		case f.Type.Kind() == reflect.Pointer && f.Type.Elem().Kind() == reflect.Struct && !fv.IsNil():
			if name := setHiddenField(fv.Elem()); name != "" {
				return name
			}
		}
	}
	return ""
}

func FuzzQueryDecode(f *testing.F) {
	var seeds []string
	for _, params := range endpointParams {
		for _, p := range params {
			seeds = append(seeds, p.query)
		}
	}
	sort.Strings(seeds)
	seeds = append(seeds,
		"", "k=x&seed=z&ubfactor=w&timeout_ms=y", "where=1,2&graph=x&faultplan=seed=1&tracer=1",
		"ubfactor=NaN", "fractions=1,-0,1e308", "method=%ff", "k=+5&k=6", "parallel=T&analyze=0")
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		q, _ := url.ParseQuery(raw) // as r.URL.Query() does: malformed pairs drop
		checkQueryInto(t, q, func(r *mlpart.PartitionRequest) *mlpart.WireGraph { return &r.Graph })
		checkQueryInto(t, q, func(r *mlpart.OrderRequest) *mlpart.WireGraph { return &r.Graph })
		checkQueryInto(t, q, func(r *mlpart.RepartitionRequest) *mlpart.WireGraph { return &r.Graph })
		checkQueryInto(t, q, func(r *mlpart.SessionCreateRequest) *mlpart.WireGraph { return &r.Graph })
	})
}

// TestBadSessionAndRepartitionNameEveryField: a session create and a
// repartition with two bad fields each get one 400 naming both, in field
// order.
func TestBadSessionAndRepartitionNameEveryField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ path, body, want string }{
		{"/v1/graphs", `{"graph":{"xadj":[0,1,2],"adjncy":[1,0]},"k":1,"ubfactor":0.5}`,
			`sessions: k must be >= 2, got 1; ubfactor = 0.5, want >= 1 (or 0 for the default 1.05)`},
		{"/v1/repartition", `{"graph":{"xadj":[0,1,2],"adjncy":[1,0]},"k":2,"where":[0,1],"options":{"ubfactor":0.5,"migration_weight":-1}}`,
			`bad options: mlpart: RepartitionOptions.Ubfactor = 0.5, want >= 1 (or 0 for the default 1.05); ` +
				`RepartitionOptions.MigrationWeight = -1, want >= 0 (0 means the default 1.0)`},
	} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var er mlpart.ErrorResponse
		err = json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || er.Error != tc.want {
			t.Errorf("%s: status %d, error %q (%v); want 400, %q", tc.path, resp.StatusCode, er.Error, err, tc.want)
		}
	}
}
