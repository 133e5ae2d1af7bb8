// Package faults is the fault-tolerance substrate of the partitioner:
// panic boundaries that convert crashes into typed errors, and a
// deterministic fault injector that can fire panics, errors and delays
// at named sites inside the V-cycle and the service.
//
// The two halves prove each other. The boundaries exist so that one
// poisoned request — a panic in a parallel-bisection trial, a bug tickled
// by a pathological graph — degrades into an error response instead of
// killing the daemon; the injector exists so that tests can force exactly
// those failures, deterministically, and assert the recovery behavior
// under -race. A nil *Injector is the off switch and costs one nil check
// per site, mirroring the nil-Tracer contract of internal/trace.
//
// Fault plans are strings (flag -faults, env MLPART_FAULTS, or
// Options.FaultPlan) of semicolon-separated directives:
//
//	seed=42; engine/bisect=panic@2; initpart/sbp=error@1+; refine/level=delay:5ms@p0.25
//
// Each directive names a site and an action kind — "panic", "error" or
// "delay:<duration>" — plus an optional trigger after "@": "N" fires on
// exactly the Nth hit of the site (the default is 1), "N+" fires on the
// Nth hit and every one after, "pF" fires with probability F per hit
// (using the plan's seed), and "*" fires on every hit.
package faults

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Injection site names. Each is a point where the engine or the service
// consults the injector; docs/RELIABILITY.md documents what firing each
// one exercises.
const (
	// SiteEngineBisect fires at the start of every multilevel bisection
	// V-cycle (including each best-of-NCuts trial, parallel or not).
	SiteEngineBisect = "engine/bisect"
	// SiteCoarsenLevel fires at every coarsening level boundary; an
	// injected error stops coarsening early (a valid, shallower
	// hierarchy), a panic unwinds to the engine boundary.
	SiteCoarsenLevel = "coarsen/level"
	// SiteCoarsenMatch fires after every matching; an injected error
	// forces the "matching stalled" path (and with HCM, the HEM
	// fallback).
	SiteCoarsenMatch = "coarsen/match"
	// SiteInitPart fires right before the coarsest-graph partition.
	SiteInitPart = "initpart/partition"
	// SiteInitSBP fires inside every SBP trial; an injected error forces
	// the Lanczos non-convergence path (the GGGP fallback).
	SiteInitSBP = "initpart/sbp"
	// SiteRefineLevel fires before each level's 2-way refinement; an
	// injected error or a recovered panic keeps the projected partition.
	SiteRefineLevel = "refine/level"
	// SiteKWayLevel fires before each level's k-way refinement pass; an
	// injected error or a recovered panic keeps the projected partition.
	SiteKWayLevel = "kway/level"
	// SiteKWayPass fires at every pass boundary inside boundary k-way
	// refinement (BKWAY); an injected error abandons the remaining passes
	// of the level, keeping the moves committed so far (always a valid,
	// balanced partition).
	SiteKWayPass = "kway/pass"
	// SiteServiceWorker fires inside the service worker slot right before
	// the computation starts.
	SiteServiceWorker = "service/worker"
	// SiteCycle fires at the start of every extra multilevel cycle of an
	// iterated (eco/strong preset) run; an injected error or panic degrades
	// the run to the best completed cycle's partition — never a hard error.
	SiteCycle = "cycle"
	// SiteJobRun fires inside an asynchronous job's runner right before
	// the computation starts (after the worker slot is acquired); an
	// injected panic or error finishes the job as failed with the same
	// wire error the synchronous endpoint would return.
	SiteJobRun = "jobs/run"
	// SiteSessionApply fires inside a resident graph session right before
	// a delta batch mutates the graph; an injected error or panic rolls
	// the whole batch back — the session's graph, partition and delta log
	// are exactly as if the batch never arrived.
	SiteSessionApply = "session/apply"
	// SiteSessionRepair fires at the start of every session repair (any
	// tier); an injected error or panic leaves the incumbent partition
	// untouched, with the drift that triggered the repair still pending
	// so a later batch or explicit repartition retries it.
	SiteSessionRepair = "session/repair"
)

// Sites lists every known injection site, sorted.
func Sites() []string {
	s := []string{
		SiteEngineBisect,
		SiteCoarsenLevel,
		SiteCoarsenMatch,
		SiteInitPart,
		SiteInitSBP,
		SiteRefineLevel,
		SiteKWayLevel,
		SiteKWayPass,
		SiteServiceWorker,
		SiteCycle,
		SiteJobRun,
		SiteSessionApply,
		SiteSessionRepair,
	}
	sort.Strings(s)
	return s
}

// PanicError is a panic recovered at a Boundary, carrying the site name,
// the original panic value and the goroutine stack at recovery time. It
// is how a crash inside the engine surfaces as a typed error a handler
// can log (with the stack) and map to a 500.
type PanicError struct {
	// Site is the boundary that recovered the panic.
	Site string
	// Value is the original panic value.
	Value any
	// Stack is the formatted stack of the panicking goroutine.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic at %s: %v", e.Site, e.Value)
}

// InjectedError is the error fired by an "error"-kind injection rule.
// Real failures never produce it, so tests can assert an error came from
// the plan and handlers can treat it like an internal fault.
type InjectedError struct {
	// Site is the injection site that fired.
	Site string
	// Hit is the 1-based hit count at which the rule fired.
	Hit int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faults: injected error at %s (hit %d)", e.Site, e.Hit)
}

// injectedPanic is the value thrown by a "panic"-kind rule; Boundary and
// AsPanic preserve it like any other panic value.
type injectedPanic struct {
	site string
	hit  int64
}

func (p injectedPanic) String() string {
	return fmt.Sprintf("faults: injected panic at %s (hit %d)", p.site, p.hit)
}

// AsPanic converts a recovered panic value into a *PanicError attributed
// to site. A value that already is a *PanicError is returned unchanged,
// so nested boundaries attribute the panic to the innermost site.
func AsPanic(site string, r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Site: site, Value: r, Stack: debug.Stack()}
}

// Boundary runs fn and converts a panic into a *PanicError attributed to
// site; a normal return passes fn's error through. It is the recovery
// point wrapped around a unit of work whose crash must not take the
// process down (a request handler, a worker body).
func Boundary(site string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = AsPanic(site, r)
		}
	}()
	return fn()
}

// kind discriminates what a rule does when it fires.
type kind int

const (
	kindPanic kind = iota
	kindError
	kindDelay
)

// rule is one parsed plan directive.
type rule struct {
	kind  kind
	delay time.Duration // kindDelay only
	// Exactly one trigger is active: hit (exact), from (onward), or
	// prob (per-hit probability).
	hit  int64
	from int64
	prob float64
}

func (r *rule) fires(n int64, rng *rand.Rand) bool {
	switch {
	case r.prob > 0:
		return rng.Float64() < r.prob
	case r.from > 0:
		return n >= r.from
	default:
		return n == r.hit
	}
}

// Injector fires configured faults at named sites. It is safe for
// concurrent use; per-site hit counters are shared across every
// computation using the injector, which is what lets a server-level plan
// poison exactly the first request that reaches a site and no other.
// The zero-value method set on a nil *Injector does nothing.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	hits  map[string]int64
	rules map[string][]*rule
}

// Parse builds an Injector from a fault plan (see the package comment
// for the grammar). An empty or all-whitespace plan yields a nil
// Injector — the zero-cost off state.
func Parse(plan string) (*Injector, error) {
	var (
		in   *Injector
		seed int64 = 1
	)
	for _, dir := range strings.Split(plan, ";") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		eq := strings.Index(dir, "=")
		if eq <= 0 {
			return nil, fmt.Errorf("faults: directive %q is not site=action", dir)
		}
		name, action := strings.TrimSpace(dir[:eq]), strings.TrimSpace(dir[eq+1:])
		if name == "seed" {
			v, err := strconv.ParseInt(action, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faults: bad seed %q: %v", action, err)
			}
			seed = v
			continue
		}
		r, err := parseRule(action)
		if err != nil {
			return nil, fmt.Errorf("faults: site %s: %v", name, err)
		}
		if in == nil {
			in = &Injector{hits: make(map[string]int64), rules: make(map[string][]*rule)}
		}
		in.rules[name] = append(in.rules[name], r)
	}
	if in != nil {
		in.rng = rand.New(rand.NewSource(seed))
	}
	return in, nil
}

// MustParse is Parse for tests and constants; it panics on a bad plan.
func MustParse(plan string) *Injector {
	in, err := Parse(plan)
	if err != nil {
		panic(err)
	}
	return in
}

func parseRule(action string) (*rule, error) {
	trigger := ""
	if at := strings.LastIndex(action, "@"); at >= 0 {
		action, trigger = action[:at], action[at+1:]
	}
	r := &rule{}
	switch {
	case action == "panic":
		r.kind = kindPanic
	case action == "error":
		r.kind = kindError
	case strings.HasPrefix(action, "delay:"):
		d, err := time.ParseDuration(action[len("delay:"):])
		if err != nil {
			return nil, fmt.Errorf("bad delay %q: %v", action, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("negative delay %q", action)
		}
		r.kind = kindDelay
		r.delay = d
	default:
		return nil, fmt.Errorf("unknown action %q (want panic, error or delay:<duration>)", action)
	}
	switch {
	case trigger == "":
		r.hit = 1
	case trigger == "*":
		r.from = 1
	case strings.HasPrefix(trigger, "p"):
		p, err := strconv.ParseFloat(trigger[1:], 64)
		if err != nil || p <= 0 || p > 1 {
			return nil, fmt.Errorf("bad probability trigger %q (want p0<F<=1)", trigger)
		}
		r.prob = p
	case strings.HasSuffix(trigger, "+"):
		n, err := strconv.ParseInt(trigger[:len(trigger)-1], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad trigger %q (want N>=1)", trigger)
		}
		r.from = n
	default:
		n, err := strconv.ParseInt(trigger, 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad trigger %q (want N, N+, pF or *)", trigger)
		}
		r.hit = n
	}
	return r, nil
}

// Fire consults the injector at a named site. It returns nil and does
// nothing when no rule fires (always, on a nil receiver); otherwise it
// sleeps (delay rules), returns an *InjectedError (error rules), or
// panics with a value AsPanic attributes to the site (panic rules).
func (in *Injector) Fire(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	in.hits[site]++
	n := in.hits[site]
	var act *rule
	for _, r := range in.rules[site] {
		if r.fires(n, in.rng) {
			act = r
			break
		}
	}
	in.mu.Unlock()
	if act == nil {
		return nil
	}
	switch act.kind {
	case kindDelay:
		time.Sleep(act.delay)
		return nil
	case kindError:
		return &InjectedError{Site: site, Hit: n}
	default:
		panic(injectedPanic{site: site, hit: n})
	}
}

// HitCount reports how many times Fire has been called for site. Tests
// use it to assert a plan's site was actually reached.
func (in *Injector) HitCount(site string) int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[site]
}

var (
	envOnce sync.Once
	envInj  *Injector
)

// Default returns the process-wide injector parsed once from the
// MLPART_FAULTS environment variable, or nil when it is unset or
// invalid (an invalid plan is reported to stderr and ignored — a bad
// fault plan must never take real traffic down).
func Default() *Injector {
	envOnce.Do(func() {
		plan := os.Getenv("MLPART_FAULTS")
		if plan == "" {
			return
		}
		in, err := Parse(plan)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mlpart: ignoring MLPART_FAULTS: %v\n", err)
			return
		}
		envInj = in
	})
	return envInj
}
