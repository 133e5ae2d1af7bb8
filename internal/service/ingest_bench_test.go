package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"mlpart"
	"mlpart/internal/matgen"
)

// The service ingest benchmarks isolate the request-path cost of the two
// body encodings. Repartition is the cheapest computation by a wide
// margin (one sweep, no V-cycle), so on a large graph the measured time
// is dominated by decode + validation — exactly the path the binary
// format exists to shrink. Caching is disabled so every request decodes.

func benchServer(b *testing.B) *httptest.Server {
	b.Helper()
	s, err := New(Config{CacheSize: -1})
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s)
	b.Cleanup(ts.Close)
	return ts
}

func benchGraphAndWhere(b *testing.B) (mlpart.WireGraph, []int) {
	b.Helper()
	wg := gridGraph(200, 200)
	where := make([]int, 200*200)
	for v := range where {
		where[v] = (v % 200) * 8 / 200
	}
	return wg, where
}

func postBench(b *testing.B, client *http.Client, url, ctype string, body []byte) {
	b.Helper()
	resp, err := client.Post(url, ctype, bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	data, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil || resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d err %v: %s", resp.StatusCode, rerr, data)
	}
}

func BenchmarkServiceIngestJSON(b *testing.B) {
	ts := benchServer(b)
	wg, where := benchGraphAndWhere(b)
	body, err := json.Marshal(mlpart.RepartitionRequest{Graph: wg, K: 8, Where: where})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, ts.Client(), ts.URL+"/v1/repartition", mlpart.ContentTypeJSON, body)
	}
}

func BenchmarkServiceIngestBinary(b *testing.B) {
	ts := benchServer(b)
	wg, where := benchGraphAndWhere(b)
	g, err := wg.ToGraph()
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := mlpart.WriteBinaryGraphPart(&buf, g, where); err != nil {
		b.Fatal(err)
	}
	body := buf.Bytes()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postBench(b, ts.Client(), ts.URL+"/v1/repartition?k=8", mlpart.ContentTypeBinaryCSR, body)
	}
}

// BenchmarkDecodeJSONRequest is the daemon's JSON request decode on the
// ~125k-vertex FE3D mesh body the fe3d-json daemon benchmark posts and on
// a star whose hub has degree 65,535: the stdlib decoder (the fallback and
// the fuzz reference) against the scanning decoder, both ending in the
// same PartitionRequest, and the scanning decoder followed by the graph's
// validation, as a JSON body or batch entry goes through them. The star
// keeps validation honest: a symmetry probe that scans the hub's list for
// each leaf costs O(Σ deg²) there.
func BenchmarkDecodeJSONRequest(b *testing.B) {
	graphOf := func(r *mlpart.PartitionRequest) *mlpart.WireGraph { return &r.Graph }
	for _, gc := range []struct {
		name string
		wg   mlpart.WireGraph
	}{
		{"fe3d", *mlpart.NewWireGraph(matgen.FE3DTetra(50, 50, 50, 3))},
		{"star", starWire(1 << 16)},
	} {
		body, err := json.Marshal(mlpart.PartitionRequest{Graph: gc.wg, K: 32, Options: &mlpart.Options{Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		for _, bc := range []struct {
			name   string
			decode func() (mlpart.PartitionRequest, error)
		}{
			{"stdlib", func() (req mlpart.PartitionRequest, err error) {
				err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
				return req, err
			}},
			{"scan", func() (mlpart.PartitionRequest, error) { return decodeJSON(body, graphOf) }},
			{"scan+validate", func() (mlpart.PartitionRequest, error) {
				req, err := decodeJSON(body, graphOf)
				if err == nil {
					_, err = req.Graph.ToGraph()
				}
				return req, err
			}},
		} {
			b.Run(gc.name+"/"+bc.name, func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(body)))
				for i := 0; i < b.N; i++ {
					req, err := bc.decode()
					if err != nil || len(req.Graph.Adjncy) != len(gc.wg.Adjncy) {
						b.Fatalf("decode: %v", err)
					}
				}
			})
		}
	}
}
