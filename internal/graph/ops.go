package graph

// BFS performs a breadth-first traversal from start and returns the order
// in which vertices were discovered. Only the connected component of start
// is visited.
func (g *Graph) BFS(start int) []int {
	n := g.NumVertices()
	order := make([]int, 0, n)
	seen := make([]bool, n)
	queue := make([]int, 0, n)
	queue = append(queue, start)
	seen[start] = true
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, u := range g.Neighbors(v) {
			if !seen[u] {
				seen[u] = true
				queue = append(queue, u)
			}
		}
	}
	return order
}

// Components labels each vertex with its connected component id, returning
// the label slice and the number of components. Component ids are assigned
// in order of the lowest-numbered vertex they contain.
func (g *Graph) Components() (labels []int, count int) {
	n := g.NumVertices()
	labels = make([]int, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int
	for s := 0; s < n; s++ {
		if labels[s] >= 0 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, u := range g.Neighbors(v) {
				if labels[u] < 0 {
					labels[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return labels, count
}

// IsConnected reports whether the graph is connected. The empty graph is
// considered connected.
func (g *Graph) IsConnected() bool {
	if g.NumVertices() == 0 {
		return true
	}
	_, c := g.Components()
	return c == 1
}

// PseudoPeripheral returns a vertex that approximately maximizes graph
// eccentricity, found by repeated BFS from the last-discovered vertex.
// It is the standard starting point for graph-growing partitioners and
// profile-reducing orderings. start must be a valid vertex.
func (g *Graph) PseudoPeripheral(start int) int {
	v := start
	prevLen := -1
	for i := 0; i < 8; i++ {
		order := g.BFS(v)
		last := order[len(order)-1]
		if len(order) == prevLen && last == v {
			break
		}
		prevLen = len(order)
		v = last
	}
	return v
}

// DegreeHistogram returns counts[d] = number of vertices with degree d,
// up to the maximum degree present.
func (g *Graph) DegreeHistogram() []int {
	maxd := 0
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		if d := g.Degree(v); d > maxd {
			maxd = d
		}
	}
	counts := make([]int, maxd+1)
	for v := 0; v < n; v++ {
		counts[g.Degree(v)]++
	}
	return counts
}

// AverageDegree returns 2m/n, or 0 for the empty graph.
func (g *Graph) AverageDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(len(g.Adjncy)) / float64(n)
}
