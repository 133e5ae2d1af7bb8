package multilevel

import (
	"math/rand"
	"reflect"
	"testing"

	"mlpart/internal/matgen"
)

// The engine refactor (engine.go) must not change any fixed-seed result:
// these edge-cuts and part weights were captured from the pre-engine
// drivers (commit 626f8a4) and pin Bisect, Partition, PartitionKWay and
// PartitionWeighted bit-for-bit. The values of the runs that refine a
// k-way partition (KWayRefine, PartitionKWay) were re-pinned when the
// full-sweep k-way kernel was deleted and every k-way refinement moved to
// the boundary kernel, refine.RefineKWay.

func TestGoldenBisect(t *testing.T) {
	g1 := matgen.Mesh2DTri(30, 30, 0.02, 4)
	g2 := matgen.FE3DTetra(8, 8, 8, 2)

	b, _, _ := Bisect(g1, 0, Options{Seed: 7}, rand.New(rand.NewSource(7)), nil)
	if b.Cut != 57 || b.Pwgt[0] != 440 || b.Pwgt[1] != 440 {
		t.Errorf("Bisect(g1): cut=%d pwgt=%v, want cut=57 pwgt=[440 440]", b.Cut, b.Pwgt)
	}

	b, _, _ = Bisect(g2, 0, Options{Seed: 7, NCuts: 3}, rand.New(rand.NewSource(7)), nil)
	if b.Cut != 142 || b.Pwgt[0] != 256 || b.Pwgt[1] != 256 {
		t.Errorf("Bisect(g2, NCuts=3): cut=%d pwgt=%v, want cut=142 pwgt=[256 256]", b.Cut, b.Pwgt)
	}
}

func TestGoldenPartition(t *testing.T) {
	g1 := matgen.Mesh2DTri(30, 30, 0.02, 4)
	g3 := matgen.CircuitPowerLaw(1500, 3, 9)

	cases := []struct {
		name    string
		run     func() (*Result, error)
		wantCut int
		wantPW  []int
	}{
		{"Partition(g1,5)", func() (*Result, error) { return Partition(g1, 5, Options{Seed: 11}) },
			145, []int{175, 176, 175, 177, 177}},
		{"Partition(g1,8)", func() (*Result, error) { return Partition(g1, 8, Options{Seed: 11}) },
			192, []int{110, 110, 110, 110, 109, 110, 110, 111}},
		{"Partition(g3,5,KWayRefine)", func() (*Result, error) { return Partition(g3, 5, Options{Seed: 11, KWayRefine: true}) },
			1864, []int{300, 300, 300, 300, 300}},
		{"Partition(g3,8,KWayRefine)", func() (*Result, error) { return Partition(g3, 8, Options{Seed: 11, KWayRefine: true}) },
			2095, []int{187, 187, 187, 188, 188, 188, 188, 187}},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.EdgeCut != tc.wantCut || !reflect.DeepEqual(res.PartWeights, tc.wantPW) {
			t.Errorf("%s: cut=%d pw=%v, want cut=%d pw=%v",
				tc.name, res.EdgeCut, res.PartWeights, tc.wantCut, tc.wantPW)
		}
	}
}

func TestGoldenPartitionKWay(t *testing.T) {
	g2 := matgen.FE3DTetra(8, 8, 8, 2)

	res, err := PartitionKWay(g2, 7, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 398 || !reflect.DeepEqual(res.PartWeights, []int{73, 71, 73, 76, 72, 72, 75}) {
		t.Errorf("PartitionKWay(g2,7): cut=%d pw=%v, want cut=398 pw=[73 71 73 76 72 72 75]",
			res.EdgeCut, res.PartWeights)
	}

	res, err = PartitionKWay(g2, 16, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	wantPW := []int{33, 32, 32, 33, 33, 25, 33, 33, 28, 33, 33, 33, 33, 33, 33, 32}
	if res.EdgeCut != 656 || !reflect.DeepEqual(res.PartWeights, wantPW) {
		t.Errorf("PartitionKWay(g2,16): cut=%d pw=%v, want cut=656 pw=%v",
			res.EdgeCut, res.PartWeights, wantPW)
	}
}

func TestGoldenPartitionWeighted(t *testing.T) {
	g1 := matgen.Mesh2DTri(30, 30, 0.02, 4)
	g2 := matgen.FE3DTetra(8, 8, 8, 2)

	res, err := PartitionWeighted(g1, []float64{4, 2, 1, 1}, Options{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 104 || !reflect.DeepEqual(res.PartWeights, []int{440, 220, 110, 110}) {
		t.Errorf("PartitionWeighted(g1): cut=%d pw=%v, want cut=104 pw=[440 220 110 110]",
			res.EdgeCut, res.PartWeights)
	}

	res, err = PartitionWeighted(g2, []float64{1, 2, 3}, Options{Seed: 13, NCuts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.EdgeCut != 201 || !reflect.DeepEqual(res.PartWeights, []int{84, 170, 258}) {
		t.Errorf("PartitionWeighted(g2, NCuts=2): cut=%d pw=%v, want cut=201 pw=[84 170 258]",
			res.EdgeCut, res.PartWeights)
	}
}
