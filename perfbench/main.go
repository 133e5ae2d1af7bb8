// Command daemonbench is the repository's end-to-end benchmark: it starts
// the real partitioning daemon (service.Server with production defaults)
// on a loopback listener inside this process, drives it with closed-loop
// HTTP clients, checks every answer, and prints the end-to-end metrics.
// With --trace 1 it instead replays the same ops through direct calls into
// each layer's public functions and prints the per-layer breakdown.
//
//	go run . --workload fe3d-json --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md beside this file
// describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mlpart/internal/service"
)

// heldOutSeed is the workload seed reserved for confirming a performance
// claim: a change is tuned against other seeds and confirmed on this one.
const heldOutSeed = 9173

// size scales the generated inputs; the self-test runs every workload at a
// tiny size.
type size struct {
	mesh int // FE3D mesh edge length: mesh³ vertices
	soc  int // SOC power-law graph vertex count
}

var fullSize = size{mesh: 50, soc: 65536}

// workload is one traffic mix. It generates inputs graphs (or sessions)
// from its seed and sends op i to input i mod inputs: engine time varies
// by graph as much as by op seed, so one run averages over several. Ops
// [0, quality) always run, so edge_cut and balance are computed over the
// same ops on every run with one seed; the traced run reports its counts
// over its first traced ops. quality and traced are multiples of inputs.
type workload struct {
	name    string
	clients int
	inputs  int
	quality int
	traced  int
	build   func(sz size, seed int64, inputs int) (fixture, error)
}

var workloads = []workload{
	{name: "fe3d-json", clients: 2, inputs: 4, quality: 24, traced: 8, build: newFE3DJSON},
	{name: "soc-csrb-eco", clients: 2, inputs: 4, quality: 24, traced: 8, build: newSOCCSRBEco},
	// Two sessions, not four: each holds ~250 MB resident.
	{name: "fe3d-session", clients: 1, inputs: 2, quality: 40, traced: 24, build: newFE3DSession},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// fixture is a workload's generated inputs and pre-encoded request bodies.
type fixture interface {
	// prepare runs once against a freshly started server, before any op.
	prepare(hc *http.Client, base string) error
	// do runs op i over HTTP.
	do(hc *http.Client, base string, i int) *record
	// check verifies records holding ops 0..len(recs)-1 in op order,
	// setting err, cut and balance on each.
	check(recs []*record)
	// direct returns a function running op i through direct calls into the
	// layers, timing each call. A non-nil log is installed as the engine's
	// tracer and enables per-layer allocation counting.
	direct(log *eventLog) (func(i int) (*tracedOp, error), error)
}

// record is one op as the client saw it.
type record struct {
	op        int
	http      bool
	latency   time.Duration
	end       time.Time
	computeNS int64
	reqBytes  int
	respBytes int
	cache     string
	bodies    [][]byte
	err       error
	cut       int
	balance   float64
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects metrics in print order with an optional note each.
type report struct {
	names   []string
	metrics map[string]metric
	notes   map[string]string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) add(name string, value float64, unit string) {
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: value, Unit: unit}
}

func (r *report) note(name, text string) { r.notes[name] = text }

func (r *report) print(w io.Writer) {
	for _, n := range r.names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-34s %14.4f %s", n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		fmt.Fprintln(w, line)
	}
}

// env is one set-up instance: fixture plus a running server.
type env struct {
	fx     fixture
	srv    *service.Server
	hs     *http.Server
	served chan error
	hc     *http.Client
	base   string
}

// setup generates the inputs, pre-encodes the bodies, starts the server
// and runs the fixture's preparation (session creation).
func setup(w workload, sz size, seed int64) (*env, error) {
	fx, err := w.build(sz, seed, w.inputs)
	if err != nil {
		return nil, fmt.Errorf("build inputs: %w", err)
	}
	srv, err := service.New(service.Config{})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &env{
		fx:     fx,
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		served: make(chan error, 1),
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: w.clients,
			DisableCompression:  true,
		}},
		base: "http://" + ln.Addr().String(),
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	if err := fx.prepare(e.hc, e.base); err != nil {
		e.close()
		return nil, fmt.Errorf("prepare: %w", err)
	}
	return e, nil
}

// close stops the server and waits for its serve loop to return.
func (e *env) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: shutdown: %v\n", err)
	}
	<-e.served
	if err := e.srv.CloseSessions(); err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: close sessions: %v\n", err)
	}
	e.hc.CloseIdleConnections()
}

// options is one benchmark invocation.
type options struct {
	sz      size
	seed    int64
	window  time.Duration
	traced  bool
	setups  int // set-up repetitions; setup_s is their median
	verbose io.Writer
}

// run sets the workload up, measures it and returns the result; the
// report's lines go to o.verbose.
func run(w workload, o options) (*result, error) {
	fmt.Fprintf(o.verbose, "# workload=%s seed=%d held_out_seed=%d seconds=%g trace=%t clients=%d\n",
		w.name, o.seed, heldOutSeed, o.window.Seconds(), o.traced, w.clients)
	reps := o.setups
	if reps < 1 {
		reps = 1
	}
	var (
		e      *env
		setups []float64
	)
	for r := 0; r < reps; r++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = setup(w, o.sz, o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	runtime.GC()
	if o.traced {
		return runTraced(w, e, o)
	}
	return runLoad(w, e, o, median(setups))
}

// runLoad is the untraced run: closed-loop clients over HTTP for the
// window, then the end-to-end metrics.
func runLoad(w workload, e *env, o options, setupS float64) (*result, error) {
	// Warm-up: one op per client, checked but not timed.
	warm := make([]*record, w.clients)
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			warm[c] = e.fx.do(e.hc, e.base, c)
		}(c)
	}
	wg.Wait()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	timed, rate := closedLoop(e, w.clients, w.clients, w.quality, o.window)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)

	all := append(warm, timed...)
	sort.Slice(all, func(i, j int) bool { return all[i].op < all[j].op })
	e.fx.check(all)

	res := &result{Attempted: len(all)}
	var lats, cuts []float64
	maxBal := 0.0
	for _, r := range all {
		if r.err != nil {
			res.Failed++
			fmt.Fprintf(o.verbose, "# FAIL op %d: %v\n", r.op, r.err)
			continue
		}
		if r.op < w.quality {
			cuts = append(cuts, float64(r.cut))
			maxBal = max(maxBal, r.balance)
		}
	}
	for _, r := range timed {
		lats = append(lats, ms(r.latency))
	}
	n := float64(len(timed))
	tailV, tailP, beyond := tail(lats)

	rep := newReport()
	rep.add("throughput_rps", rate, "ops/s")
	rep.add("latency_p50_ms", median(lats), "ms")
	rep.add("latency_tail_ms", tailV, "ms")
	rep.note("latency_tail_ms", fmt.Sprintf("p%.1f, %d of %d timed ops beyond", tailP, beyond, len(timed)))
	rep.add("cpu_ms_per_op", ms(cpu)/n, "ms")
	rep.add("alloc_mb_per_op", mb(m1.TotalAlloc-m0.TotalAlloc)/n, "MB")
	rep.add("peak_rss_mb", peakRSSMB(), "MB")
	rep.add("edge_cut", mean(cuts), "weight")
	rep.note("edge_cut", fmt.Sprintf("mean over ops 0..%d", w.quality-1))
	rep.add("balance", maxBal, "ratio")
	rep.note("balance", fmt.Sprintf("max over ops 0..%d", w.quality-1))
	rep.add("setup_s", setupS, "s")
	rep.note("setup_s", fmt.Sprintf("median of %d set-ups", max(o.setups, 1)))
	rep.print(o.verbose)
	// error_rate is printed with the others but left out of the JSON
	// metrics: it is 0 on a correct run, and failures travel in "failed".
	fmt.Fprintf(o.verbose, "%-34s %14.4f %s  (%d of %d ops failed)\n", "error_rate",
		float64(res.Failed)/float64(res.Attempted), "fraction", res.Failed, res.Attempted)

	res.Correct = res.Failed == 0
	res.Metrics = rep.metrics
	return res, nil
}

// closedLoop runs clients that each send their next op only after the
// previous reply, until the window has passed and ops [0, quality) have
// all started. Op indices come from one shared counter starting at first.
// The rate is the sum over clients of completed ops over the client's busy
// time, so a client finishing its last op after the window still counts
// at its own pace.
func closedLoop(e *env, clients, first, quality int, window time.Duration) ([]*record, float64) {
	per := make([][]*record, clients)
	var next atomic.Int64
	next.Store(int64(first))
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < window || next.Load() < int64(quality) {
				i := int(next.Add(1) - 1)
				per[c] = append(per[c], e.fx.do(e.hc, e.base, i))
			}
		}(c)
	}
	wg.Wait()
	var all []*record
	rate := 0.0
	for _, recs := range per {
		if len(recs) == 0 {
			continue
		}
		rate += float64(len(recs)) / recs[len(recs)-1].end.Sub(start).Seconds()
		all = append(all, recs...)
	}
	return all, rate
}

func main() {
	name := flag.String("workload", "", "workload: fe3d-json, soc-csrb-eco or fe3d-session")
	seed := flag.Int64("seed", 1, "workload seed: fixes every generated input and per-op seed")
	seconds := flag.Float64("seconds", 20, "measured window in seconds")
	traceFlag := flag.Int("trace", 0, "1 replays the ops through direct layer calls and prints per-layer metrics")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "daemonbench: bad arguments (workload %q, seconds %g, trace %d)\n", *name, *seconds, *traceFlag)
		os.Exit(2)
	}
	res, err := run(w, options{
		sz:      fullSize,
		seed:    *seed,
		window:  time.Duration(*seconds * float64(time.Second)),
		traced:  *traceFlag == 1,
		setups:  3,
		verbose: os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "daemonbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
