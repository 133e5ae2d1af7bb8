package matgen

import (
	"math"
	"math/rand"

	"mlpart/internal/graph"
)

// Delaunay computes the Delaunay triangulation of a 2D point set with the
// Bowyer-Watson incremental algorithm (walk-based point location, cavity
// retriangulation), returning the triangles as vertex-index triples in
// counterclockwise order. Points should be in general position; the
// generators in this package jitter their points, which makes exact
// degeneracies vanishingly rare, and the predicates include a small
// tolerance. Duplicate points must not be passed.
//
// The triangulation of a mesh generator's point set gives the true
// unstructured-FE edge structure (the class of the paper's 4ELT airfoil
// mesh), unlike stencil-based grids.
func Delaunay(xs, ys []float64) [][3]int {
	n := len(xs)
	if n < 3 {
		return nil
	}
	// Bounding super-triangle, far enough out that its circumcircles
	// always contain the data points' region.
	minX, maxX := xs[0], xs[0]
	minY, maxY := ys[0], ys[0]
	for i := 1; i < n; i++ {
		minX = math.Min(minX, xs[i])
		maxX = math.Max(maxX, xs[i])
		minY = math.Min(minY, ys[i])
		maxY = math.Max(maxY, ys[i])
	}
	cx, cy := (minX+maxX)/2, (minY+maxY)/2
	d := math.Max(maxX-minX, maxY-minY)
	if d == 0 {
		d = 1
	}
	d *= 16
	px := append(append([]float64(nil), xs...), cx-d, cx+d, cx)
	py := append(append([]float64(nil), ys...), cy-d, cy-d, cy+d)
	s0, s1, s2 := n, n+1, n+2

	t := &triangulation{px: px, py: py}
	t.add([3]int{s0, s1, s2}, [3]int{-1, -1, -1})

	// Insert points in random (but deterministic) order: randomized
	// insertion gives the expected near-linear behavior.
	order := rand.New(rand.NewSource(0x9E3779B9)).Perm(n)
	last := 0
	for _, p := range order {
		last = t.insert(p, last)
	}

	// Collect live triangles that avoid the super-triangle corners.
	var out [][3]int
	for i, tri := range t.tv {
		if !t.alive[i] {
			continue
		}
		if tri[0] >= n || tri[1] >= n || tri[2] >= n {
			continue
		}
		out = append(out, tri)
	}
	return out
}

// triangulation is the Bowyer-Watson working state.
type triangulation struct {
	px, py []float64
	tv     [][3]int // triangle vertices, CCW
	tn     [][3]int // tn[t][i] = neighbor across the edge opposite tv[t][i]
	alive  []bool
	free   []int // recycled triangle slots
}

func (t *triangulation) add(v [3]int, nb [3]int) int {
	if k := len(t.free); k > 0 {
		id := t.free[k-1]
		t.free = t.free[:k-1]
		t.tv[id] = v
		t.tn[id] = nb
		t.alive[id] = true
		return id
	}
	t.tv = append(t.tv, v)
	t.tn = append(t.tn, nb)
	t.alive = append(t.alive, true)
	return len(t.tv) - 1
}

func (t *triangulation) kill(id int) {
	t.alive[id] = false
	t.free = append(t.free, id)
}

// orient returns > 0 if (a,b,c) is counterclockwise.
func (t *triangulation) orient(a, b, c int) float64 {
	return (t.px[b]-t.px[a])*(t.py[c]-t.py[a]) - (t.py[b]-t.py[a])*(t.px[c]-t.px[a])
}

// inCircumcircle reports whether point p lies inside the circumcircle of
// the CCW triangle (a, b, c).
func (t *triangulation) inCircumcircle(a, b, c, p int) bool {
	ax, ay := t.px[a]-t.px[p], t.py[a]-t.py[p]
	bx, by := t.px[b]-t.px[p], t.py[b]-t.py[p]
	cx, cy := t.px[c]-t.px[p], t.py[c]-t.py[p]
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 1e-12
}

// locate walks from triangle `start` to a triangle containing point p.
func (t *triangulation) locate(p, start int) int {
	cur := start
	if cur < 0 || !t.alive[cur] {
		for i := range t.alive {
			if t.alive[i] {
				cur = i
				break
			}
		}
	}
	for steps := 0; steps < 4*len(t.tv)+16; steps++ {
		v := t.tv[cur]
		moved := false
		for i := 0; i < 3; i++ {
			// Edge opposite v[i] is (v[(i+1)%3], v[(i+2)%3]).
			a, b := v[(i+1)%3], v[(i+2)%3]
			if t.orient(a, b, p) < -1e-12 {
				next := t.tn[cur][i]
				if next >= 0 {
					cur = next
					moved = true
					break
				}
			}
		}
		if !moved {
			return cur
		}
	}
	return cur // walk failed to settle (degenerate input); best effort
}

// insert adds point p (an index into px/py) and returns a triangle id near
// the insertion for the next walk to start from.
func (t *triangulation) insert(p, hint int) int {
	seed := t.locate(p, hint)

	// Grow the cavity: all triangles whose circumcircle contains p.
	inCavity := map[int]bool{seed: true}
	stack := []int{seed}
	var cavity []int
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		cavity = append(cavity, cur)
		for i := 0; i < 3; i++ {
			nb := t.tn[cur][i]
			if nb < 0 || inCavity[nb] {
				continue
			}
			v := t.tv[nb]
			if t.inCircumcircle(v[0], v[1], v[2], p) {
				inCavity[nb] = true
				stack = append(stack, nb)
			}
		}
	}

	// Boundary edges of the cavity, each with the outside neighbor.
	type bedge struct {
		a, b    int // directed so that (a, b, p) is CCW
		outside int
	}
	var boundary []bedge
	for _, cur := range cavity {
		v := t.tv[cur]
		for i := 0; i < 3; i++ {
			nb := t.tn[cur][i]
			if nb >= 0 && inCavity[nb] {
				continue
			}
			a, b := v[(i+1)%3], v[(i+2)%3]
			boundary = append(boundary, bedge{a, b, nb})
		}
	}
	for _, cur := range cavity {
		t.kill(cur)
	}

	// Fan of new triangles; link fan neighbors through the shared p-edges.
	// fanBy[x] = triangle whose boundary edge starts (or ends) at vertex x.
	newTri := make([]int, len(boundary))
	fanByA := make(map[int]int, len(boundary))
	for i, e := range boundary {
		id := t.add([3]int{e.a, e.b, p}, [3]int{-1, -1, e.outside})
		// tn[id][2] is across edge (a, b) = the outside triangle; fix the
		// outside triangle's back pointer.
		if e.outside >= 0 {
			ov := t.tv[e.outside]
			for j := 0; j < 3; j++ {
				x, y := ov[(j+1)%3], ov[(j+2)%3]
				if (x == e.b && y == e.a) || (x == e.a && y == e.b) {
					t.tn[e.outside][j] = id
				}
			}
		}
		newTri[i] = id
		fanByA[e.a] = id
	}
	// Neighbor across edge (b, p) of triangle (a, b, p) is the fan
	// triangle whose boundary edge starts at b; that edge is opposite
	// vertex a (index 0). Symmetrically the (p, a) edge is opposite b.
	for i, e := range boundary {
		id := newTri[i]
		if nb, ok := fanByA[e.b]; ok {
			t.tn[id][0] = nb // across (b, p)
		}
		// Find the fan triangle whose edge *ends* at a: its b == our a.
		// That triangle's (b, p) edge is our (p, a) edge.
		for j, e2 := range boundary {
			if e2.b == e.a {
				t.tn[id][1] = newTri[j] // across (p, a)
				break
			}
		}
	}
	return newTri[0]
}

// Point is a vertex coordinate returned by DelaunayMesh and AirfoilMesh.
// Z is zero for these 2D meshes.
type Point struct {
	X, Y, Z float64
}

// DelaunayMesh generates n random points in the unit square (deterministic
// in seed), triangulates them, and returns the triangulation's edge graph
// plus the points — a true unstructured 2D FE mesh in the style of 4ELT.
func DelaunayMesh(n int, seed int64) (*graph.Graph, []Point) {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
		pts[i] = Point{X: xs[i], Y: ys[i]}
	}
	tris := Delaunay(xs, ys)
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
	}
	for _, tr := range tris {
		addEdge(tr[0], tr[1])
		addEdge(tr[1], tr[2])
		addEdge(tr[2], tr[0])
	}
	return largestComponent(b.MustBuild()), pts
}

// AirfoilMesh generates a 2D unstructured mesh in the style of the actual
// 4ELT matrix (a multi-element airfoil triangulation): random points in
// the unit square with a void where the airfoil sits, graded so that
// density increases toward the void's boundary, then Delaunay
// triangulated with the void's interior triangles removed.
func AirfoilMesh(n int, seed int64) (*graph.Graph, []Point) {
	rng := rand.New(rand.NewSource(seed))
	const (
		cx, cy = 0.45, 0.5  // airfoil center
		rx, ry = 0.18, 0.05 // elliptic void
	)
	inVoid := func(x, y float64) bool {
		dx := (x - cx) / rx
		dy := (y - cy) / ry
		return dx*dx+dy*dy < 1
	}
	xs := make([]float64, 0, n)
	ys := make([]float64, 0, n)
	for len(xs) < n {
		x, y := rng.Float64(), rng.Float64()
		// Grade density: keep far-field points with lower probability.
		dx := (x - cx) / rx
		dy := (y - cy) / ry
		d := math.Sqrt(dx*dx+dy*dy) - 1 // 0 at the surface
		if d < 0 {
			continue // inside the airfoil
		}
		keep := 1.0 / (1 + d) // denser near the surface
		if rng.Float64() > keep {
			continue
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	tris := Delaunay(xs, ys)
	b := graph.NewBuilder(n)
	seen := make(map[[2]int]bool)
	addEdge := func(u, v int) {
		if u > v {
			u, v = v, u
		}
		if !seen[[2]int{u, v}] {
			seen[[2]int{u, v}] = true
			b.AddEdge(u, v)
		}
	}
	for _, tr := range tris {
		// Drop triangles spanning the void (centroid inside).
		mx := (xs[tr[0]] + xs[tr[1]] + xs[tr[2]]) / 3
		my := (ys[tr[0]] + ys[tr[1]] + ys[tr[2]]) / 3
		if inVoid(mx, my) {
			continue
		}
		addEdge(tr[0], tr[1])
		addEdge(tr[1], tr[2])
		addEdge(tr[2], tr[0])
	}
	g := largestComponent(b.MustBuild())
	pts := make([]Point, len(xs))
	for i := range xs {
		pts[i] = Point{X: xs[i], Y: ys[i]}
	}
	return g, pts
}
