// Package initpart implements the partitioning phase of the multilevel
// scheme (§3.2 of the paper): computing a bisection of the small coarsest
// graph. Three algorithms are provided — spectral bisection (SBP), graph
// growing (GGP) and greedy graph growing (GGGP) — plus a random split used
// as a control. GGP and GGGP are randomized and run multiple trials,
// keeping the best; the paper uses 10 trials for GGP and 5 for GGGP.
package initpart

import (
	"fmt"
	"math/rand"
	"time"

	"mlpart/internal/enum"
	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/refine"
	"mlpart/internal/spectral"
	"mlpart/internal/trace"
	"mlpart/internal/workspace"
)

// Method selects the coarse-graph bisection algorithm.
type Method int

const (
	// GGGP grows a region from a random vertex, always absorbing the
	// boundary vertex that least increases the edge-cut. The paper finds
	// it consistently best and selects it for all experiments.
	GGGP Method = iota
	// GGP grows a region breadth-first from a random vertex until half the
	// vertex weight is absorbed.
	GGP
	// SBP computes the Fiedler vector of the coarse graph by Lanczos and
	// splits at the weighted median.
	SBP
	// RandomPart assigns vertices randomly subject to the weight target
	// (control only).
	RandomPart
)

// methodNames is the methods' name table: their abbreviations as used in
// the paper, plus RAND for the control.
var methodNames = enum.Names[Method]{GGGP: "GGGP", GGP: "GGP", SBP: "SBP", RandomPart: "RAND"}

// String returns the method's abbreviation as used in the paper.
func (m Method) String() string { return methodNames.Name(m) }

// Valid reports whether m is one of the defined methods; Partition panics
// on anything else, so user-reachable entry points must gate on this.
func (m Method) Valid() bool { return methodNames.Valid(m) }

// ParseMethod converts an abbreviation (any case) to a Method.
func ParseMethod(s string) (Method, error) {
	if m, ok := methodNames.Parse(s); ok {
		return m, nil
	}
	return 0, fmt.Errorf("initpart: unknown method %q (want %v)", s, methodNames)
}

// MethodNames lists the methods' names in Method order.
func MethodNames() []string { return methodNames.List() }

// Options configures the initial partitioning.
type Options struct {
	Method Method
	// Trials is the number of random starts for GGP/GGGP; 0 means the
	// paper's defaults (10 for GGP, 5 for GGGP, 1 otherwise).
	Trials int
	// TargetPwgt0 is the desired weight of part 0; 0 means half the total.
	TargetPwgt0 int
	// Workspace, when non-nil, supplies pooled buffers for the trial
	// bisections and their scratch; the winning bisection is itself
	// workspace-backed, so the caller must Release or Detach it. Results
	// are identical either way.
	Workspace *workspace.Workspace
	// Level is the hierarchy level reported in trace events (engine-set).
	Level int
	// Tracer, when non-nil, receives one KindInitial event with the
	// winning trial's cut. Results are bit-identical with or without.
	Tracer trace.Tracer
	// Injector, when non-nil, is consulted at faults.SiteInitSBP inside
	// every SBP trial; an injected error forces the Lanczos
	// non-convergence path, i.e. the GGGP fallback. A nil Injector costs
	// one nil check.
	Injector *faults.Injector
	// Degradations, when non-nil, receives a record for every SBP trial
	// that fell back to GGGP.
	Degradations *[]trace.Degradation
}

func (o Options) withDefaults(g *graph.Graph) Options {
	if o.Trials <= 0 {
		switch o.Method {
		case GGP:
			o.Trials = 10
		case GGGP:
			o.Trials = 5
		default:
			o.Trials = 1
		}
	}
	if o.TargetPwgt0 <= 0 {
		o.TargetPwgt0 = g.TotalVertexWeight() / 2
	}
	return o
}

// Partition bisects g, returning refinement-ready state. Multiple trials
// are run per Options and the smallest cut wins (ties broken by balance).
func Partition(g *graph.Graph, opts Options, rng *rand.Rand) *refine.Bisection {
	opts = opts.withDefaults(g)
	ws := opts.Workspace
	n := g.NumVertices()
	if n == 0 {
		return refine.NewBisection(g, nil)
	}
	var t0 time.Time
	if opts.Tracer != nil {
		t0 = time.Now()
	}
	var best *refine.Bisection
	for trial := 0; trial < opts.Trials; trial++ {
		var b *refine.Bisection
		switch opts.Method {
		case GGP:
			b = growBFS(g, opts.TargetPwgt0, rng, ws)
		case GGGP:
			b = growGreedy(g, opts.TargetPwgt0, rng, ws)
		case SBP:
			vec, converged := spectral.FiedlerChecked(g, n-1, nil, rng)
			reason := "Lanczos did not converge"
			if ierr := opts.Injector.Fire(faults.SiteInitSBP); ierr != nil {
				converged = false
				reason = ierr.Error()
			}
			if !converged {
				// Spectral bisection has nothing usable; GGGP is the
				// paper's recommended partitioner anyway (§3.2: same
				// quality as SBP at far lower cost), so it is the natural
				// degraded-mode substitute.
				if opts.Degradations != nil {
					*opts.Degradations = append(*opts.Degradations, trace.Degradation{
						Phase:  "initpart",
						From:   SBP.String(),
						To:     GGGP.String(),
						Level:  opts.Level,
						Reason: reason,
					})
				}
				b = growGreedy(g, opts.TargetPwgt0, rng, ws)
			} else {
				b = refine.NewBisectionWS(g, spectral.SplitAtMedian(g, vec, opts.TargetPwgt0), ws)
			}
		case RandomPart:
			b = randomSplit(g, opts.TargetPwgt0, rng, ws)
		default:
			panic(fmt.Sprintf("initpart: invalid method %d", opts.Method))
		}
		if best == nil || b.Cut < best.Cut ||
			(b.Cut == best.Cut && absInt(b.Pwgt[0]-opts.TargetPwgt0) < absInt(best.Pwgt[0]-opts.TargetPwgt0)) {
			if best != nil {
				best.Release(ws)
			}
			best = b
		} else {
			b.Release(ws)
		}
	}
	if opts.Tracer != nil {
		opts.Tracer.Event(trace.Event{
			Kind:      trace.KindInitial,
			Level:     opts.Level,
			Vertices:  n,
			Cut:       best.Cut,
			Algorithm: opts.Method.String(),
			Trials:    opts.Trials,
			ElapsedNS: time.Since(t0).Nanoseconds(),
		})
	}
	return best
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// growBFS is GGP: breadth-first region growing from a random seed until
// part 0 reaches the target weight. Disconnected remainders are handled by
// reseeding from an unvisited vertex.
func growBFS(g *graph.Graph, target0 int, rng *rand.Rand, ws *workspace.Workspace) *refine.Bisection {
	n := g.NumVertices()
	where := ws.IntFilled(n, 1)
	visited := ws.Bool(n)
	queueBuf := ws.Int(n)
	queue := queueBuf[:0]
	acc := 0
	seed := rng.Intn(n)
	visited[seed] = true
	queue = append(queue, seed)
	nextProbe := 0
	for acc < target0 {
		if len(queue) == 0 {
			// Component exhausted; reseed deterministically.
			for nextProbe < n && visited[nextProbe] {
				nextProbe++
			}
			if nextProbe >= n {
				break
			}
			visited[nextProbe] = true
			queue = append(queue, nextProbe)
		}
		v := queue[0]
		queue = queue[1:]
		where[v] = 0
		acc += g.Vwgt[v]
		for _, u := range g.Neighbors(v) {
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
	}
	ws.PutBool(visited)
	ws.PutInt(queueBuf)
	return refine.NewBisectionWS(g, where, ws)
}

// growGreedy is GGGP: region growing where the next vertex absorbed is the
// frontier vertex whose move into the region least increases the cut
// (equivalently, has maximum gain). Implemented directly on the refinement
// state: all vertices start in part 1, and the frontier is the set of
// part-1 vertices adjacent to part 0.
func growGreedy(g *graph.Graph, target0 int, rng *rand.Rand, ws *workspace.Workspace) *refine.Bisection {
	n := g.NumVertices()
	where := ws.IntFilled(n, 1)
	b := refine.NewBisectionWS(g, where, ws)
	var bk refine.GainBuckets
	bk.Init(n, g.MaxWeightedDegree(), ws)
	onGainChange := func(u int) {
		if b.Where[u] != 1 {
			return
		}
		if bk.Contains(u) {
			bk.Update(u, b.Gain(u))
		} else if b.IsBoundary(u) {
			bk.Insert(u, b.Gain(u))
		}
	}
	seed := rng.Intn(n)
	nextProbe := 0
	b.Move(seed, onGainChange)
	for b.Pwgt[0] < target0 {
		v, ok := bk.PopMax()
		if !ok {
			// Frontier exhausted (disconnected graph); reseed.
			for nextProbe < n && b.Where[nextProbe] != 1 {
				nextProbe++
			}
			if nextProbe >= n {
				break
			}
			b.Move(nextProbe, onGainChange)
			continue
		}
		b.Move(v, onGainChange)
	}
	bk.Free(ws)
	return b
}

// randomSplit assigns random vertices to part 0 until the target is met.
func randomSplit(g *graph.Graph, target0 int, rng *rand.Rand, ws *workspace.Workspace) *refine.Bisection {
	n := g.NumVertices()
	where := ws.IntFilled(n, 1)
	perm := workspace.PermInto(rng, n, ws.Int(n))
	acc := 0
	for _, v := range perm {
		if acc >= target0 {
			break
		}
		where[v] = 0
		acc += g.Vwgt[v]
	}
	ws.PutInt(perm)
	return refine.NewBisectionWS(g, where, ws)
}
