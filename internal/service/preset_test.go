package service

import (
	"net/http"
	"net/url"
	"testing"

	"mlpart"
)

// TestCachePresetKeying asserts the cache-key contract for quality
// presets: fast and strong requests never alias (a strong cut must not be
// served to a fast client, nor the reverse), while preset=strong and the
// equivalent explicit cycles=4 canonicalize to one entry.
func TestCachePresetKeying(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	wg := gridGraph(12, 12)
	post := func(o *mlpart.Options) (string, int) {
		t.Helper()
		resp, data := postJSON(t, ts.Client(), ts.URL+"/v1/partition",
			mlpart.PartitionRequest{Graph: wg, K: 4, Options: o})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, data)
		}
		return resp.Header.Get("X-Cache"), resp.StatusCode
	}

	if c, _ := post(&mlpart.Options{Seed: 3}); c != "miss" {
		t.Errorf("fast cold: X-Cache = %q, want miss", c)
	}
	if c, _ := post(&mlpart.Options{Seed: 3, Preset: mlpart.PresetStrong}); c != "miss" {
		t.Errorf("strong after fast: X-Cache = %q, want miss (presets must not alias)", c)
	}
	if c, _ := post(&mlpart.Options{Seed: 3, Cycles: 4}); c != "hit" {
		t.Errorf("cycles=4 after preset=strong: X-Cache = %q, want hit (same effective run)", c)
	}
	if c, _ := post(&mlpart.Options{Seed: 3, Preset: mlpart.PresetFast}); c != "hit" {
		t.Errorf("explicit fast after implicit fast: X-Cache = %q, want hit", c)
	}
	if size := s.cache.len(); size != 2 {
		t.Errorf("cache size = %d, want 2 (one fast entry, one strong entry)", size)
	}

	// Preset varz counters: 2 fast requests, 2 strong-equivalent requests.
	if got := s.met.presetFast.Load(); got != 2 {
		t.Errorf("presetFast = %d, want 2", got)
	}
	if got := s.met.presetStrong.Load(); got != 2 {
		t.Errorf("presetStrong = %d, want 2", got)
	}
	if got := s.met.presetEco.Load(); got != 0 {
		t.Errorf("presetEco = %d, want 0", got)
	}
}

// TestCanonicalOptionsCycles pins the canonical key's cycle term directly:
// preset names, explicit counts and the default all resolve through
// EffectiveCycles.
func TestCanonicalOptionsCycles(t *testing.T) {
	fast := canonicalOptions(&mlpart.Options{})
	eco := canonicalOptions(&mlpart.Options{Preset: mlpart.PresetEco})
	strong := canonicalOptions(&mlpart.Options{Preset: mlpart.PresetStrong})
	four := canonicalOptions(&mlpart.Options{Cycles: 4})
	if fast == eco || eco == strong || fast == strong {
		t.Errorf("preset keys alias: fast=%q eco=%q strong=%q", fast, eco, strong)
	}
	if strong != four {
		t.Errorf("preset=strong key %q != cycles=4 key %q", strong, four)
	}
	if nilKey := canonicalOptions(nil); nilKey != fast {
		t.Errorf("nil options key %q != default key %q", nilKey, fast)
	}

	// Spellings the engine resolves to its defaults share the default key.
	for _, o := range []*mlpart.Options{
		{InitPart: mlpart.InitGGGP, Refinement: mlpart.RefineBKLGR},
		{CoarsenTo: 100},
		{Ubfactor: 1},
		{Ubfactor: 1.05},
		{NCuts: 0},
		{NCuts: 1},
		{CoarsenWorkers: 0},
		{CoarsenWorkers: 1},
		{CoarsenWorkers: 2},
		{Ordering: ""},
		{Ordering: mlpart.OrderingNone},
		{RefineWorkers: 1},
		{RefineWorkers: 8},
	} {
		if got := canonicalOptions(o); got != fast {
			t.Errorf("options %+v: key %q != default key %q", o, got, fast)
		}
	}
	// Each result-affecting option splits the key, and no two alias.
	seen := map[string]string{fast: "default"}
	for name, o := range map[string]*mlpart.Options{
		"seed":               {Seed: 1},
		"ncuts 2":            {NCuts: 2},
		"cycles 3":           {Cycles: 3},
		"ordering degree":    {Ordering: mlpart.OrderingDegree},
		"GCLP":               {Coarsening: &mlpart.CoarseningOptions{Scheme: mlpart.MatchGCLP}},
		"max_cluster_weight": {Coarsening: &mlpart.CoarseningOptions{Scheme: mlpart.MatchGCLP, MaxClusterWeight: 8}},
		"lp_rounds":          {Coarsening: &mlpart.CoarseningOptions{Scheme: mlpart.MatchGCLP, LPRounds: 2}},
	} {
		key := canonicalOptions(o)
		if prev, dup := seen[key]; dup {
			t.Errorf("%s shares its key with %s: %q", name, prev, key)
		}
		seen[key] = name
	}
}

// TestPresetFromQuery asserts the binary-CSR query-parameter path decodes
// preset and cycles like the JSON body path.
func TestPresetFromQuery(t *testing.T) {
	q, err := url.ParseQuery("preset=eco&cycles=3&seed=7")
	if err != nil {
		t.Fatal(err)
	}
	var req mlpart.PartitionRequest
	if err := queryInto(q, &req); err != nil {
		t.Fatal(err)
	}
	o := req.Options
	if o.Preset != mlpart.PresetEco || o.Cycles != 3 || o.Seed != 7 {
		t.Errorf("decoded %+v, want preset=eco cycles=3 seed=7", o)
	}
	if got := o.EffectiveCycles(); got != 3 {
		t.Errorf("EffectiveCycles = %d, want 3 (explicit count overrides preset)", got)
	}
}
