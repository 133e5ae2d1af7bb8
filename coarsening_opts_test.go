package mlpart_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"mlpart"
)

// TestEffectiveCoarsening pins the canonicalization rules: the deprecated
// matching alias and the structured block resolve to one canonical scheme
// name, disagreement and misapplied GCLP knobs are errors.
func TestEffectiveCoarsening(t *testing.T) {
	cases := []struct {
		name       string
		opts       mlpart.Options
		wantScheme string
		wantErr    string
	}{
		{name: "zero value defaults to HEM",
			opts: mlpart.Options{}, wantScheme: mlpart.MatchHEM},
		{name: "matching alias",
			opts:       mlpart.Options{Matching: "hcm"},
			wantScheme: mlpart.MatchHCM},
		{name: "structured scheme",
			opts:       mlpart.Options{Coarsening: &mlpart.CoarseningOptions{Scheme: "Gclp"}},
			wantScheme: mlpart.MatchGCLP},
		{name: "both set and agreeing",
			opts: mlpart.Options{
				Matching:   "hem",
				Coarsening: &mlpart.CoarseningOptions{Scheme: "HEM"},
			},
			wantScheme: mlpart.MatchHEM},
		{name: "both set and disagreeing",
			opts: mlpart.Options{
				Matching:   mlpart.MatchHEM,
				Coarsening: &mlpart.CoarseningOptions{Scheme: mlpart.MatchRM},
			},
			wantErr: "disagree"},
		{name: "unknown scheme",
			opts:    mlpart.Options{Coarsening: &mlpart.CoarseningOptions{Scheme: "GCL"}},
			wantErr: "unknown"},
		{name: "GCLP knobs allowed under GCLP",
			opts: mlpart.Options{Coarsening: &mlpart.CoarseningOptions{
				Scheme: "gclp", MaxClusterWeight: 64, LPRounds: 4,
			}},
			wantScheme: mlpart.MatchGCLP},
		{name: "GCLP knobs rejected under matching scheme",
			opts: mlpart.Options{Coarsening: &mlpart.CoarseningOptions{
				Scheme: mlpart.MatchHEM, MaxClusterWeight: 64,
			}},
			wantErr: "apply only to GCLP"},
		{name: "negative cluster weight",
			opts: mlpart.Options{Coarsening: &mlpart.CoarseningOptions{
				Scheme: "GCLP", MaxClusterWeight: -1,
			}},
			wantErr: "max_cluster_weight"},
		{name: "negative rounds",
			opts: mlpart.Options{Coarsening: &mlpart.CoarseningOptions{
				Scheme: "GCLP", LPRounds: -2,
			}},
			wantErr: "lp_rounds"},
		{name: "every bad field named in field order",
			opts: mlpart.Options{Matching: "HXM", Coarsening: &mlpart.CoarseningOptions{
				Scheme: "GCL", MaxClusterWeight: -1, LPRounds: -2,
			}},
			wantErr: `coarsen: unknown coarsening scheme "HXM" (want RM, HEM, LEM, HCM or GCLP); ` +
				`coarsen: unknown coarsening scheme "GCL" (want RM, HEM, LEM, HCM or GCLP); ` +
				`coarsening.max_cluster_weight = -1, want >= 0; coarsening.lp_rounds = -2, want >= 0`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co, err := tc.opts.EffectiveCoarsening()
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				// Validate must surface the same failure.
				if verr := tc.opts.Validate(); verr == nil {
					t.Error("Validate() = nil for invalid coarsening config")
				}
				return
			}
			if err != nil {
				t.Fatalf("EffectiveCoarsening: %v", err)
			}
			if co.Scheme != tc.wantScheme {
				t.Errorf("scheme = %q, want %q", co.Scheme, tc.wantScheme)
			}
			if verr := tc.opts.Validate(); verr != nil {
				t.Errorf("Validate: %v", verr)
			}
		})
	}
}

// TestCoarseningSchemesRegistry checks the exported registry covers both
// families and matches the Match* constants.
func TestCoarseningSchemesRegistry(t *testing.T) {
	schemes := mlpart.CoarseningSchemes()
	if len(schemes) != 5 {
		t.Fatalf("got %d schemes, want 5", len(schemes))
	}
	families := map[string]string{}
	for _, s := range schemes {
		if s.Description == "" {
			t.Errorf("%s: empty description", s.Name)
		}
		families[s.Name] = s.Family
	}
	for _, name := range []string{mlpart.MatchRM, mlpart.MatchHEM, mlpart.MatchLEM, mlpart.MatchHCM} {
		if families[name] != mlpart.FamilyMatching {
			t.Errorf("%s family = %q, want %q", name, families[name], mlpart.FamilyMatching)
		}
	}
	if families[mlpart.MatchGCLP] != mlpart.FamilyAggregation {
		t.Errorf("GCLP family = %q, want %q", families[mlpart.MatchGCLP], mlpart.FamilyAggregation)
	}
}

// TestCapabilitiesResponseWire checks the capabilities document round-trips
// JSON with the expected kind, schema version and registry-backed lists.
func TestCapabilitiesResponseWire(t *testing.T) {
	cr := mlpart.NewCapabilitiesResponse()
	if cr.Kind != mlpart.WireKindCapabilities || cr.SchemaVersion != mlpart.SchemaVersion {
		t.Fatalf("kind/version: %q/%d", cr.Kind, cr.SchemaVersion)
	}
	data, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`"kind":"capabilities"`, `"coarsening_schemes"`, `"family":"aggregation"`,
		`"init_methods"`, `"refinements"`, `"presets"`, `"orderings"`,
		`"workloads"`, `"fault_sites"`,
	} {
		if !strings.Contains(string(data), want) {
			t.Errorf("marshaled capabilities missing %s", want)
		}
	}
	var back mlpart.CapabilitiesResponse
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.CoarseningSchemes) != len(mlpart.CoarseningSchemes()) {
		t.Errorf("round-trip lost schemes: %d", len(back.CoarseningSchemes))
	}

	// The lists are the parsers' name tables, in table order, and the
	// public name constants are their canonical spellings. RAND has no
	// constant: it is the control method, accepted and advertised but not
	// recommended.
	var schemes []string
	for _, s := range cr.CoarseningSchemes {
		schemes = append(schemes, s.Name)
	}
	for _, tc := range []struct {
		name      string
		got, want []string
	}{
		{"coarsening_schemes", schemes, []string{mlpart.MatchRM, mlpart.MatchHEM, mlpart.MatchLEM, mlpart.MatchHCM, mlpart.MatchGCLP}},
		{"init_methods", cr.InitMethods, []string{mlpart.InitGGGP, mlpart.InitGGP, mlpart.InitSBP, "RAND"}},
		{"refinements", cr.Refinements, []string{
			mlpart.RefineNone, mlpart.RefineGR, mlpart.RefineKLR, mlpart.RefineBGR,
			mlpart.RefineBKLR, mlpart.RefineBKLGR, mlpart.RefineBKWAY,
		}},
		{"presets", cr.Presets, []string{mlpart.PresetFast, mlpart.PresetEco, mlpart.PresetStrong}},
		{"orderings", cr.Orderings, []string{mlpart.OrderingNone, mlpart.OrderingDegree, mlpart.OrderingBFSBlock}},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}

// TestCoarseningWireRoundTrip checks CoarseningOptions crosses the wire
// and that the deprecated matching field still marshals independently.
func TestCoarseningWireRoundTrip(t *testing.T) {
	o := &mlpart.Options{
		Seed: 9,
		Coarsening: &mlpart.CoarseningOptions{
			Scheme: "GCLP", MaxClusterWeight: 32, LPRounds: 5,
		},
	}
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"coarsening":{"scheme":"GCLP","max_cluster_weight":32,"lp_rounds":5}`) {
		t.Errorf("unexpected encoding: %s", data)
	}
	var back mlpart.Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Coarsening == nil || *back.Coarsening != *o.Coarsening {
		t.Errorf("round-trip: %+v", back.Coarsening)
	}
}
