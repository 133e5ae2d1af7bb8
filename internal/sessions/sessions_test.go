package sessions

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"mlpart/internal/faults"
	"mlpart/internal/graph"
	"mlpart/internal/kway"
	"mlpart/internal/matgen"
	"mlpart/internal/trace"
)

// fakeClock is a mutable test clock for Options.Now.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func mustManager(t *testing.T, opts Options) *Manager {
	t.Helper()
	m, err := NewManager(opts)
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	return m
}

func mustCreate(t *testing.T, m *Manager, g *graph.Graph, cfg Config) *State {
	t.Helper()
	st, err := m.Create(g, cfg)
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return st
}

// TestCreateCtxCanceled: a create whose context has ended returns the
// context's error and leaves no session behind, in memory or on disk; the
// same graph can be created afterwards.
func TestCreateCtxCanceled(t *testing.T) {
	dir := t.TempDir()
	m := mustManager(t, Options{StateDir: dir})
	g := matgen.Grid2D(20, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.CreateCtx(ctx, g, Config{K: 4, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("CreateCtx on a canceled context: %v, want context.Canceled", err)
	}
	if n := m.Stats().Sessions; n != 0 {
		t.Fatalf("%d sessions after a canceled create, want 0", n)
	}
	if _, err := os.Stat(filepath.Join(dir, IDFor(g))); !os.IsNotExist(err) {
		t.Fatalf("a canceled create left its session directory: %v", err)
	}
	mustCreate(t, m, g, Config{K: 4, Seed: 1})
}

// crossPair returns one vertex from part 0 and one from part 1.
func crossPair(t *testing.T, where []int) (int, int) {
	t.Helper()
	u, v := -1, -1
	for i, p := range where {
		if p == 0 && u < 0 {
			u = i
		}
		if p == 1 && v < 0 {
			v = i
		}
		if u >= 0 && v >= 0 {
			return u, v
		}
	}
	t.Fatal("partition has an empty part")
	return 0, 0
}

func TestSessionLifecycle(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.Grid2D(12, 12)
	st := mustCreate(t, m, g, Config{K: 2, Seed: 7})
	if st.ID != IDFor(g) {
		t.Fatalf("id = %q, want %q", st.ID, IDFor(g))
	}
	if st.Vertices != 144 || st.K != 2 || st.Cut <= 0 {
		t.Fatalf("bad state: %+v", st)
	}
	if st.BaselineCut != st.Cut {
		t.Fatalf("baseline %d != cut %d at creation", st.BaselineCut, st.Cut)
	}

	// Duplicate graph → ErrExists.
	if _, err := m.Create(g, Config{K: 2, Seed: 7}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create: got %v, want ErrExists", err)
	}

	got, err := m.Get(st.ID, true)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if len(got.Where) != 144 {
		t.Fatalf("Get(withWhere) returned %d entries", len(got.Where))
	}
	if list := m.List(); len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("List = %+v", list)
	}

	if err := m.Delete(st.ID); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := m.Get(st.ID, false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete: got %v, want ErrNotFound", err)
	}
	if err := m.Delete(st.ID); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: got %v, want ErrNotFound", err)
	}
}

func TestApplyDeltaBoundaryRepair(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.Grid2D(12, 12)
	st := mustCreate(t, m, g, Config{K: 2, Seed: 7})

	// A single unit edge cannot drift the cut past the default 1.10
	// ratio, so the ladder stays on its cheapest rung.
	got, err := m.Apply(st.ID, []Op{{Op: OpAdd, U: 0, V: 143, W: 1}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got.LastRepair != "boundary" {
		t.Fatalf("LastRepair = %q, want boundary", got.LastRepair)
	}
	if got.Seq != 1 || got.Deltas != 1 {
		t.Fatalf("seq/deltas = %d/%d, want 1/1", got.Seq, got.Deltas)
	}
	if got.Edges != st.Edges+1 {
		t.Fatalf("edges = %d, want %d", got.Edges, st.Edges+1)
	}
	stats := m.Stats()
	if stats.RepairsBoundary != 1 || stats.DeltasApplied != 1 || stats.OpsApplied != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestLadderEscalatesToFullOnImbalance(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.Grid2D(12, 12)
	st := mustCreate(t, m, g, Config{K: 2, Seed: 7})

	// Reweighting one vertex to eclipse the rest leaves the cut alone but
	// blows the balance guard: the ladder must skip straight to a full
	// migration-aware repartition, which also resets the drift baseline.
	got, err := m.Apply(st.ID, []Op{{Op: OpVwgt, U: 0, W: 150}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got.LastRepair != "full" {
		t.Fatalf("LastRepair = %q, want full", got.LastRepair)
	}
	if got.BaselineCut != got.Cut {
		t.Fatalf("full repair must reset baseline: baseline %d, cut %d", got.BaselineCut, got.Cut)
	}
	if m.Stats().RepairsFull != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	_ = st
}

func TestLadderEscalatesToVCycleOnSevereDrift(t *testing.T) {
	m := mustManager(t, Options{CutDriftRatio: 1.01, VCycleDriftRatio: 1.02})
	g := matgen.Grid2D(12, 12)
	st := mustCreate(t, m, g, Config{K: 2, Seed: 7})
	withWhere, err := m.Get(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	u, v := crossPair(t, withWhere.Where)

	// A 1000-weight edge straddling the cut drives drift far past the
	// V-cycle threshold.
	got, err := m.Apply(st.ID, []Op{{Op: OpAdd, U: u, V: v, W: 1000}})
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if got.LastRepair != "vcycle" {
		t.Fatalf("LastRepair = %q, want vcycle", got.LastRepair)
	}
	if got.BaselineCut != got.Cut {
		t.Fatalf("vcycle must reset baseline: baseline %d, cut %d", got.BaselineCut, got.Cut)
	}
	if m.Stats().RepairsVCycle != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestExplicitRepairModes(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.Grid2D(12, 12)
	st := mustCreate(t, m, g, Config{K: 4, Seed: 3})
	// Modes, like every algorithm name, ignore case and surrounding
	// whitespace.
	for _, mode := range []string{"auto", "", "boundary", "full", "vcycle", "AUTO", " Full ", "vCycle"} {
		got, err := m.Repair(st.ID, mode)
		if err != nil {
			t.Fatalf("Repair(%q): %v", mode, err)
		}
		if got.Where == nil {
			t.Fatalf("Repair(%q) returned no partition vector", mode)
		}
		if tier := strings.ToLower(strings.TrimSpace(mode)); tier != "" && tier != "auto" && got.LastRepair != tier {
			t.Fatalf("Repair(%q) ran tier %q", mode, got.LastRepair)
		}
	}
	if _, err := m.Repair(st.ID, "nonsense"); err == nil {
		t.Fatal("Repair with unknown mode succeeded")
	}
}

func TestBatchRollbackOnInvalidOp(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.Grid2D(8, 8)
	st := mustCreate(t, m, g, Config{K: 2, Seed: 1})

	// Op 0 is valid, op 1 is garbage: the batch must roll back in full.
	_, err := m.Apply(st.ID, []Op{
		{Op: OpAdd, U: 0, V: 63, W: 5},
		{Op: OpRemove, U: 0, V: 62}, // not an edge
	})
	var oe *OpError
	if !errors.As(err, &oe) || oe.Index != 1 {
		t.Fatalf("got %v, want OpError at index 1", err)
	}
	// If the rollback worked, edge (0,63) does not exist and removing it
	// fails; if op 0 leaked, this remove succeeds.
	_, err = m.Apply(st.ID, []Op{{Op: OpRemove, U: 0, V: 63}})
	if !errors.As(err, &oe) {
		t.Fatalf("edge (0,63) survived the rollback: %v", err)
	}
	got, gerr := m.Get(st.ID, false)
	if gerr != nil {
		t.Fatal(gerr)
	}
	if got.Seq != 0 || got.Cut != st.Cut {
		t.Fatalf("state drifted after rolled-back batches: %+v", got)
	}
}

func TestOpValidation(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.Grid2D(4, 4)
	st := mustCreate(t, m, g, Config{K: 2, Seed: 1})
	cases := [][]Op{
		{},                  // empty batch
		{{Op: "zap", U: 0}}, // unknown op
		{{Op: OpAdd, U: -1, V: 1, W: 1}},
		{{Op: OpAdd, U: 0, V: 99, W: 1}},
		{{Op: OpAdd, U: 3, V: 3, W: 1}}, // self loop
		{{Op: OpAdd, U: 0, V: 5, W: 0}}, // non-positive weight
		{{Op: OpVwgt, U: 0, W: -2}},
		{{Op: OpRemove, U: 0, V: 9}}, // absent edge
	}
	for i, ops := range cases {
		var oe *OpError
		_, err := m.Apply(st.ID, ops)
		if !errors.As(err, &oe) {
			t.Errorf("case %d: got %v, want *OpError", i, err)
			continue
		}
		// Only an error about an op names one: the empty batch has none.
		if hasOp := strings.HasPrefix(err.Error(), "op 0: "); hasOp != (len(ops) > 0) {
			t.Errorf("case %d: error %q, want an op prefix only for a bad op", i, err)
		}
	}
}

func TestBudgets(t *testing.T) {
	t.Run("batch too large", func(t *testing.T) {
		m := mustManager(t, Options{MaxDeltaOps: 2})
		st := mustCreate(t, m, matgen.Grid2D(6, 6), Config{K: 2, Seed: 1})
		ops := []Op{{Op: OpVwgt, U: 0, W: 2}, {Op: OpVwgt, U: 1, W: 2}, {Op: OpVwgt, U: 2, W: 2}}
		if _, err := m.Apply(st.ID, ops); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("got %v, want ErrBatchTooLarge", err)
		}
		if m.Stats().ShedBatch != 1 {
			t.Fatalf("stats = %+v", m.Stats())
		}
	})
	t.Run("session bytes", func(t *testing.T) {
		m := mustManager(t, Options{MaxSessionBytes: 64 << 10, MaxResidentBytes: 64 << 10})
		if _, err := m.Create(matgen.Grid2D(50, 50), Config{K: 2, Seed: 1}); !errors.Is(err, ErrSessionBytes) {
			t.Fatalf("got %v, want ErrSessionBytes", err)
		}
		if m.Stats().ShedMemory != 1 {
			t.Fatalf("stats = %+v", m.Stats())
		}
	})
	t.Run("resident bytes", func(t *testing.T) {
		m := mustManager(t, Options{MaxSessionBytes: 1 << 20, MaxResidentBytes: 1 << 20})
		mustCreate(t, m, matgen.Grid2D(40, 40), Config{K: 2, Seed: 1})
		if _, err := m.Create(matgen.Grid2D(41, 41), Config{K: 2, Seed: 1}); !errors.Is(err, ErrResidentBytes) {
			t.Fatalf("got %v, want ErrResidentBytes", err)
		}
	})
	t.Run("session count", func(t *testing.T) {
		m := mustManager(t, Options{MaxSessions: 1})
		mustCreate(t, m, matgen.Grid2D(6, 6), Config{K: 2, Seed: 1})
		if _, err := m.Create(matgen.Grid2D(7, 7), Config{K: 2, Seed: 1}); !errors.Is(err, ErrTooManySessions) {
			t.Fatalf("got %v, want ErrTooManySessions", err)
		}
	})
}

func TestConfigAndOptionsValidation(t *testing.T) {
	nan := math.NaN()
	badConfigs := []Config{
		{K: 1},
		{K: 2, Ubfactor: 0.5},
		{K: 2, Ubfactor: nan},
	}
	for i, cfg := range badConfigs {
		if cfg.Validate() == nil {
			t.Errorf("config %d validated", i)
		}
	}
	badOptions := []Options{
		{CutDriftRatio: nan},
		{CutDriftRatio: 0.9},
		{CutDriftRatio: 1.5, VCycleDriftRatio: 1.2}, // inverted ladder
		{MaxImbalance: 1.0},
		{MaxSessionBytes: -1},
		{MaxSessionBytes: 2 << 20, MaxResidentBytes: 1 << 20},
		{MaxDeltaOps: -1},
		{IdleTTL: -time.Second},
		{SnapshotEvery: -1},
	}
	for i, o := range badOptions {
		if _, err := NewManager(o); err == nil {
			t.Errorf("options %d validated", i)
		}
	}
	// Several bad fields are all named, in field order, after one prefix.
	o := Options{MaxImbalance: 0.5, MaxDeltaOps: -1, SnapshotEvery: -1}
	want := "sessions: max_imbalance must be > 1 (or 0 for default), got 0.5; " +
		"max_delta_ops must be >= 0; snapshot_every must be >= 0"
	if err := o.Validate(); err == nil || err.Error() != want {
		t.Errorf("Validate() = %v, want %s", err, want)
	}
}

func TestChaosApplyFault(t *testing.T) {
	for _, action := range []string{"error", "panic"} {
		t.Run(action, func(t *testing.T) {
			m := mustManager(t, Options{
				Injector: faults.MustParse(fmt.Sprintf("%s=%s@2", faults.SiteSessionApply, action)),
			})
			st := mustCreate(t, m, matgen.Grid2D(8, 8), Config{K: 2, Seed: 1})
			first, err := m.Apply(st.ID, []Op{{Op: OpAdd, U: 0, V: 63, W: 2}})
			if err != nil {
				t.Fatalf("Apply 1: %v", err)
			}
			// Hit 2 fires inside the apply boundary: the batch must leave
			// no trace.
			_, err = m.Apply(st.ID, []Op{{Op: OpVwgt, U: 1, W: 9}, {Op: OpVwgt, U: 2, W: 9}})
			if err == nil {
				t.Fatal("injected fault did not surface")
			}
			var pe *faults.PanicError
			var ie *faults.InjectedError
			if !errors.As(err, &pe) && !errors.As(err, &ie) {
				t.Fatalf("got %v, want injected or panic error", err)
			}
			got, gerr := m.Get(st.ID, false)
			if gerr != nil {
				t.Fatal(gerr)
			}
			if got.Seq != first.Seq || got.Cut != first.Cut {
				t.Fatalf("state drifted across a failed batch: %+v vs %+v", got, first)
			}
			if got.PartWeights[0]+got.PartWeights[1] != first.PartWeights[0]+first.PartWeights[1] {
				t.Fatal("vertex weights leaked from the rolled-back batch")
			}
			if m.Stats().ApplyFailures != 1 {
				t.Fatalf("stats = %+v", m.Stats())
			}
			// The injector plan is exhausted; the session keeps working.
			if _, err := m.Apply(st.ID, []Op{{Op: OpVwgt, U: 1, W: 3}}); err != nil {
				t.Fatalf("Apply after fault: %v", err)
			}
		})
	}
}

func TestChaosRepairFault(t *testing.T) {
	m := mustManager(t, Options{
		Injector: faults.MustParse(faults.SiteSessionRepair + "=error@2"),
	})
	st := mustCreate(t, m, matgen.Grid2D(8, 8), Config{K: 2, Seed: 1})
	// Creation does not fire the repair site, so this explicit repair is
	// hit 1 (passes); its result is the incumbent partition the failing
	// repair must not disturb.
	before, err := m.Repair(st.ID, "boundary")
	if err != nil {
		t.Fatalf("Repair 1: %v", err)
	}
	// Hit 2 fires mid-repair: the delta must stay applied (it is
	// consistent and durable) but the incumbent partition stays untouched
	// and the state reports the failure.
	got, err := m.Apply(st.ID, []Op{{Op: OpAdd, U: 0, V: 63, W: 2}})
	if err != nil {
		t.Fatalf("Apply with failing repair: %v", err)
	}
	if !got.RepairFailed {
		t.Fatal("RepairFailed not reported")
	}
	if got.Seq != before.Seq+1 {
		t.Fatalf("delta was not kept: seq = %d, want %d", got.Seq, before.Seq+1)
	}
	after, err := m.Get(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := range before.Where {
		if before.Where[i] != after.Where[i] {
			t.Fatal("failed repair mutated the incumbent partition")
		}
	}
	if m.Stats().RepairFailures != 1 {
		t.Fatalf("stats = %+v", m.Stats())
	}
	// Next repair succeeds and clears the flag.
	fixed, err := m.Repair(st.ID, "boundary")
	if err != nil {
		t.Fatalf("Repair after fault: %v", err)
	}
	if fixed.RepairFailed {
		t.Fatal("RepairFailed still set after a successful repair")
	}
}

func TestConcurrentSessionTraffic(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.Grid2D(16, 16)
	st := mustCreate(t, m, g, Config{K: 4, Seed: 5})
	n := 16 * 16

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				u := (w*37 + i*11) % n
				v := (u + 1 + w) % n
				if u == v {
					v = (v + 1) % n
				}
				ops := []Op{
					{Op: OpAdd, U: u, V: v, W: 1 + (i % 3)},
					{Op: OpVwgt, U: u, W: 1 + (i % 2)},
				}
				if _, err := m.Apply(st.ID, ops); err != nil {
					errs <- fmt.Errorf("apply: %w", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				if _, err := m.Get(st.ID, i%2 == 0); err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				m.List()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			if _, err := m.Repair(st.ID, "auto"); err != nil {
				errs <- fmt.Errorf("repair: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Cross-check the incrementally maintained cut against one computed
	// from scratch by a forced V-cycle's bookkeeping.
	got, err := m.Get(st.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Deltas != 32 {
		t.Fatalf("deltas = %d, want 32", got.Deltas)
	}
	if got.Cut < 0 {
		t.Fatalf("negative cut %d", got.Cut)
	}
}

func TestDurableKillAndRecover(t *testing.T) {
	dir := t.TempDir()
	m1 := mustManager(t, Options{StateDir: dir, SnapshotEvery: 100}) // keep replay on the WAL path
	g := matgen.Grid2D(12, 12)
	st := mustCreate(t, m1, g, Config{K: 3, Seed: 11})
	for i := 0; i < 5; i++ {
		ops := []Op{
			{Op: OpAdd, U: i, V: 143 - i, W: 2 + i},
			{Op: OpVwgt, U: 10 + i, W: 2},
		}
		if _, err := m1.Apply(st.ID, ops); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	if _, err := m1.Apply(st.ID, []Op{{Op: OpRemove, U: 0, V: 143}}); err != nil {
		t.Fatalf("remove: %v", err)
	}
	want, err := m1.Get(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	// Abandon m1 without Close: the process "crashed" with the WAL tail
	// unflushed to any snapshot.

	m2 := mustManager(t, Options{StateDir: dir})
	got, err := m2.Get(st.ID, true)
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if !got.Recovered {
		t.Fatal("Recovered flag not set")
	}
	if got.Degraded {
		t.Fatal("recovery degraded on a clean log")
	}
	if got.Cut != want.Cut || got.Seq != want.Seq {
		t.Fatalf("cut/seq = %d/%d, want %d/%d", got.Cut, got.Seq, want.Cut, want.Seq)
	}
	if len(got.Where) != len(want.Where) {
		t.Fatalf("where length %d, want %d", len(got.Where), len(want.Where))
	}
	for i := range want.Where {
		if got.Where[i] != want.Where[i] {
			t.Fatalf("where[%d] = %d, want %d: recovery is not byte-identical", i, got.Where[i], want.Where[i])
		}
	}
	if m2.Stats().Recovered != 1 {
		t.Fatalf("stats = %+v", m2.Stats())
	}
}

func TestRecoveryTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	m1 := mustManager(t, Options{StateDir: dir, SnapshotEvery: 100})
	st := mustCreate(t, m1, matgen.Grid2D(10, 10), Config{K: 2, Seed: 3})
	for i := 0; i < 3; i++ {
		if _, err := m1.Apply(st.ID, []Op{{Op: OpAdd, U: i, V: 99 - i, W: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := m1.Get(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-append: a record header with no payload.
	logPath := filepath.Join(dir, st.ID, deltaLogFile)
	f, err := os.OpenFile(logPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn, err := encodeRecord(99, walRecord{Ops: []Op{{Op: OpVwgt, U: 0, W: 5}}, Tier: TierBoundary, Cut: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)-7]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	m2 := mustManager(t, Options{StateDir: dir})
	got, err := m2.Get(st.ID, true)
	if err != nil {
		t.Fatalf("Get after torn-tail recovery: %v", err)
	}
	if got.Cut != want.Cut || got.Seq != want.Seq {
		t.Fatalf("cut/seq = %d/%d, want %d/%d", got.Cut, got.Seq, want.Cut, want.Seq)
	}
	for i := range want.Where {
		if got.Where[i] != want.Where[i] {
			t.Fatalf("where[%d] diverged after torn-tail recovery", i)
		}
	}
	if m2.Stats().WALTruncations != 1 {
		t.Fatalf("stats = %+v", m2.Stats())
	}
}

func TestRecoverySkipsCorruptSession(t *testing.T) {
	dir := t.TempDir()
	m1 := mustManager(t, Options{StateDir: dir})
	st := mustCreate(t, m1, matgen.Grid2D(6, 6), Config{K: 2, Seed: 1})
	good := mustCreate(t, m1, matgen.Grid2D(7, 7), Config{K: 2, Seed: 1})
	if err := m1.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one snapshot wholesale.
	if err := os.WriteFile(filepath.Join(dir, st.ID, snapshotFile), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := mustManager(t, Options{StateDir: dir})
	if _, err := m2.Get(good.ID, false); err != nil {
		t.Fatalf("healthy session lost: %v", err)
	}
	if m2.Stats().RecoverFailures == 0 {
		t.Fatalf("stats = %+v", m2.Stats())
	}
}

func TestIdleEvictionAndResurrection(t *testing.T) {
	clock := newFakeClock()
	dir := t.TempDir()
	m := mustManager(t, Options{StateDir: dir, IdleTTL: time.Minute, Now: clock.now})
	st := mustCreate(t, m, matgen.Grid2D(10, 10), Config{K: 2, Seed: 2})
	if _, err := m.Apply(st.ID, []Op{{Op: OpAdd, U: 0, V: 99, W: 3}}); err != nil {
		t.Fatal(err)
	}
	want, err := m.Get(st.ID, true)
	if err != nil {
		t.Fatal(err)
	}

	clock.advance(2 * time.Minute)
	if n := m.Sweep(); n != 1 {
		t.Fatalf("Sweep evicted %d, want 1", n)
	}
	if m.Stats().Sessions != 0 || m.Stats().ResidentBytes != 0 {
		t.Fatalf("stats after eviction = %+v", m.Stats())
	}

	// The session resurrects transparently from disk on next touch.
	got, err := m.Get(st.ID, true)
	if err != nil {
		t.Fatalf("Get after eviction: %v", err)
	}
	if !got.Recovered {
		t.Fatal("resurrected session not flagged Recovered")
	}
	if got.Cut != want.Cut || got.Seq != want.Seq {
		t.Fatalf("cut/seq = %d/%d, want %d/%d", got.Cut, got.Seq, want.Cut, want.Seq)
	}
	for i := range want.Where {
		if got.Where[i] != want.Where[i] {
			t.Fatalf("where[%d] diverged across eviction", i)
		}
	}
	s := m.Stats()
	if s.EvictedIdle != 1 || s.Recovered != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestMemoryOnlyNeverEvicts(t *testing.T) {
	clock := newFakeClock()
	m := mustManager(t, Options{IdleTTL: time.Minute, Now: clock.now})
	st := mustCreate(t, m, matgen.Grid2D(6, 6), Config{K: 2, Seed: 1})
	clock.advance(time.Hour)
	if n := m.Sweep(); n != 0 {
		t.Fatalf("memory-only manager evicted %d sessions", n)
	}
	if _, err := m.Get(st.ID, false); err != nil {
		t.Fatalf("session vanished: %v", err)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	m := mustManager(t, Options{StateDir: dir, SnapshotEvery: 2})
	st := mustCreate(t, m, matgen.Grid2D(8, 8), Config{K: 2, Seed: 4})
	for i := 0; i < 4; i++ {
		if _, err := m.Apply(st.ID, []Op{{Op: OpVwgt, U: i, W: 2}}); err != nil {
			t.Fatal(err)
		}
	}
	// SnapshotEvery=2 → the log was compacted at least once; after the
	// 4th batch (a fresh compaction) it must be empty.
	info, err := os.Stat(filepath.Join(dir, st.ID, deltaLogFile))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Fatalf("delta log not compacted: %d bytes", info.Size())
	}
}

func TestSessionTraceEvents(t *testing.T) {
	col := &trace.Collector{}
	dir := t.TempDir()
	m := mustManager(t, Options{StateDir: dir, Tracer: col})
	st := mustCreate(t, m, matgen.Grid2D(8, 8), Config{K: 2, Seed: 1})
	if _, err := m.Apply(st.ID, []Op{{Op: OpAdd, U: 0, V: 63, W: 1}}); err != nil {
		t.Fatal(err)
	}
	for _, tier := range []string{"boundary", "full"} {
		if _, err := m.Repair(st.ID, tier); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Delete(st.ID); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	passes := 0
	for _, e := range col.Events() {
		if e.Kind == trace.KindPass {
			passes++
			continue
		}
		if e.Phase == "repair" {
			// Both tiers' refinement reports its passes before the
			// repair event.
			if passes == 0 {
				t.Fatalf("%s repair reported no refinement passes", e.Algorithm)
			}
			passes = 0
		}
		if e.Kind != trace.KindSession {
			t.Fatalf("event kind %q, want %q or %q", e.Kind, trace.KindSession, trace.KindPass)
		}
		if e.Session != st.ID {
			t.Fatalf("event session %q, want %q", e.Session, st.ID)
		}
		phases[e.Phase] = true
	}
	for _, want := range []string{"created", "delta", "repair", "deleted"} {
		if !phases[want] {
			t.Fatalf("missing %q event; got %v", want, phases)
		}
	}
}

// TestRepairSeedsFromSessionTotals: the boundary and full tiers seed
// their refinement from the cut and part weights applyOp keeps current,
// not from a recount, so those must equal a recount before every repair —
// after edge additions and removals across and inside parts and vertex
// reweighting — and again after it.
func TestRepairSeedsFromSessionTotals(t *testing.T) {
	m := mustManager(t, Options{})
	g := matgen.FE3DTetra(6, 6, 6, 2)
	st := mustCreate(t, m, g, Config{K: 8, Seed: 5})
	s, err := m.acquire(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer s.mu.Unlock()
	check := func(when string) {
		t.Helper()
		p := kway.NewPartition(s.dg.snapshot(), s.k, s.where)
		if s.cut != p.Cut || !slices.Equal(s.pwgt, p.Pwgt) {
			t.Fatalf("%s: session cut %d, weights %v; recount %d, %v", when, s.cut, s.pwgt, p.Cut, p.Pwgt)
		}
	}
	rng := rand.New(rand.NewSource(9))
	n := g.NumVertices()
	// TierNone stands for the ladder's own choice.
	tiers := []Tier{TierBoundary, TierFull, TierNone}
	for round := 0; round < 30; round++ {
		for i := 0; i < 12; i++ {
			u := rng.Intn(n)
			var op Op
			switch rng.Intn(3) {
			case 0:
				op = Op{Op: OpAdd, U: u, V: (u + 1 + rng.Intn(n-1)) % n, W: 1 + rng.Intn(5)}
			case 1:
				v := -1
				for w := range s.dg.adj[u] {
					v = max(v, w)
				}
				if v < 0 {
					continue
				}
				op = Op{Op: OpRemove, U: u, V: v}
			default:
				op = Op{Op: OpVwgt, U: u, W: 1 + rng.Intn(4)}
			}
			if _, err := s.applyOp(op); err != nil {
				t.Fatalf("op %+v: %v", op, err)
			}
		}
		tier := tiers[round%len(tiers)]
		if tier == TierNone {
			tier = s.autoTier(m.opts)
		}
		check(fmt.Sprintf("round %d, before the %s repair", round, tier))
		if err := s.repair(m, tier, false); err != nil {
			t.Fatalf("round %d: %s repair: %v", round, tier, err)
		}
		check(fmt.Sprintf("round %d, after the %s repair", round, tier))
	}
}
