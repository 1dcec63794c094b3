package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"vinestalk/internal/chaos"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/trace"
	"vinestalk/internal/tracker"
)

// parallelCfg is the shared workload config: a 16×16 grid (256 regions,
// eight 2-row logical home bands), frame accounting on so per-message wire
// costs land in the ledger, formula geometry so assembly stays cheap.
func parallelCfg() Config {
	return Config{
		Width:           16,
		AlwaysAliveVSAs: true,
		Seed:            7,
		FormulaGeometry: true,
		CountFrames:     true,
		Start:           3,
	}
}

// parallelPlacements spreads objects over all eight logical bands.
func parallelPlacements(n int) []ObjectPlacement {
	out := make([]ObjectPlacement, n)
	for i := range out {
		out[i] = ObjectPlacement{
			Obj:   tracker.ObjectID(i + 1),
			Start: geo.RegionID((7 + 11*i) % 256),
		}
	}
	return out
}

// parallelObservables is everything the acceptance bar compares: find
// results, every region's canonical encoding, and the merged ledger.
type parallelObservables struct {
	founds []tracker.FindResult
	encs   [][]byte
	ledger []byte
	steps  uint64
	cross  uint64
}

func ledgerJSON(t *testing.T, export any) []byte {
	t.Helper()
	b, err := json.Marshal(export)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// moveTargets returns each object's two-round walk: deterministic neighbor
// picks, identical however the objects are split across stacks.
func moveTarget(t *testing.T, tl *geo.GridTiling, at geo.RegionID, salt int) geo.RegionID {
	t.Helper()
	nbrs := tl.Neighbors(at)
	if len(nbrs) == 0 {
		t.Fatalf("region %v has no neighbors", at)
	}
	return nbrs[salt%len(nbrs)]
}

// runParallelScenario drives the fixed workload on a ParallelService.
func runParallelScenario(t *testing.T, k int) parallelObservables {
	t.Helper()
	cfg := parallelCfg()
	cfg.ParallelTracker = k
	ps, err := NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	placements := parallelPlacements(24)
	evs, err := ps.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, p := range placements {
			ev := evs[p.Obj]
			if err := ev.MoveTo(moveTarget(t, ps.Tiling(), ev.Region(), i+round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := ps.Evader().MoveTo(moveTarget(t, ps.Tiling(), ps.Evader().Region(), round)); err != nil {
			t.Fatal(err)
		}
		if err := ps.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range placements {
		if _, err := ps.FindObject(geo.RegionID((i*53)%256), p.Obj); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ps.Find(255); err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}

	obs := parallelObservables{
		founds: ps.Founds(),
		encs:   make([][]byte, ps.Tiling().NumRegions()),
		ledger: ledgerJSON(t, ps.MergedLedger().Export()),
		steps:  ps.Steps(),
		cross:  ps.Engine().CrossSends(),
	}
	if len(obs.founds) != len(placements)+1 {
		t.Fatalf("K=%d: %d founds, want %d", k, len(obs.founds), len(placements)+1)
	}
	for u := range obs.encs {
		enc, err := ps.EncodeRegion(geo.RegionID(u))
		if err != nil {
			t.Fatalf("K=%d region %d: %v", k, u, err)
		}
		obs.encs[u] = enc
	}
	return obs
}

// runSequentialScenario drives the identical workload on the sequential
// single-kernel service.
func runSequentialScenario(t *testing.T) parallelObservables {
	t.Helper()
	svc, err := New(parallelCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	placements := parallelPlacements(24)
	evs, err := svc.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i, p := range placements {
			ev := evs[p.Obj]
			if err := ev.MoveTo(moveTarget(t, svc.Tiling(), ev.Region(), i+round)); err != nil {
				t.Fatal(err)
			}
		}
		if err := svc.Evader().MoveTo(moveTarget(t, svc.Tiling(), svc.Evader().Region(), round)); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range placements {
		if _, err := svc.FindObject(geo.RegionID((i*53)%256), p.Obj); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Find(255); err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}

	founds := svc.Founds()
	sort.Slice(founds, func(i, j int) bool { return founds[i].ID < founds[j].ID })
	obs := parallelObservables{
		founds: founds,
		encs:   make([][]byte, svc.Tiling().NumRegions()),
		ledger: ledgerJSON(t, svc.Ledger().Export()),
		steps:  svc.Kernel().Steps(),
	}
	aut := svc.Network().Automaton()
	for u := range obs.encs {
		obs.encs[u] = aut.EncodeRegion(geo.RegionID(u))
	}
	return obs
}

// The tentpole's acceptance bar: the full multi-object workload — bulk
// attach, two move rounds, cross-band finds — produces byte-identical
// found outputs, region encodings, and merged ledger snapshots at every
// engine shard count AND against the sequential single-kernel service.
func TestParallelTrackerByteIdentity(t *testing.T) {
	seq := runSequentialScenario(t)
	for _, k := range []int{1, 2, 4, 8} {
		par := runParallelScenario(t, k)
		if !reflect.DeepEqual(par.founds, seq.founds) {
			t.Errorf("K=%d: founds differ from sequential:\n par %+v\n seq %+v", k, par.founds, seq.founds)
		}
		for u := range seq.encs {
			if !bytes.Equal(par.encs[u], seq.encs[u]) {
				t.Errorf("K=%d: region %d encoding differs from sequential", k, u)
				break
			}
		}
		if !bytes.Equal(par.ledger, seq.ledger) {
			t.Errorf("K=%d: merged ledger differs from sequential:\n par %s\n seq %s", k, par.ledger, seq.ledger)
		}
		if k > 1 && par.cross == 0 {
			t.Errorf("K=%d: no cross-shard engine frames; finds never exercised Sharded.Send", k)
		}
	}
}

// Engine step counts are the same event multiset partitioned, so the E13
// "par events" column is stable in K.
func TestParallelTrackerStepsInvariant(t *testing.T) {
	base := runParallelScenario(t, 1)
	for _, k := range []int{2, 8} {
		if got := runParallelScenario(t, k); got.steps != base.steps {
			t.Errorf("K=%d: %d engine steps, K=1 ran %d", k, got.steps, base.steps)
		}
	}
}

// stepsTracker is the API surface the steps scenario drives, shared by the
// sequential service and the parallel tracker.
type stepsTracker interface {
	AddObjects([]ObjectPlacement) (map[tracker.ObjectID]*evader.Evader, error)
	FindObject(geo.RegionID, tracker.ObjectID) (tracker.FindID, error)
	Settle() error
	Tiling() *geo.GridTiling
	Founds() []tracker.FindResult
}

// stepsRun is what one steps scenario run observed: the kernel events of
// the move and find phases, and the founds.
type stepsRun struct {
	moves, finds uint64
	founds       []tracker.FindResult
}

// runStepsScenario drives the input the Steps doc is pinned on: a 16×16
// grid, 4,096 objects bulk-attached at seeded random regions, then three
// rounds of 512 seeded one-hop moves (settled) and 256 finds from seeded
// random origins (settled). k = 0 runs the sequential service, k > 0 the
// parallel tracker at K = k.
func runStepsScenario(t *testing.T, k int, batch bool) stepsRun {
	t.Helper()
	cfg := parallelCfg()
	cfg.BatchCgcast = batch
	cfg.CountFrames = !batch
	cfg.ParallelTracker = k
	var tr stepsTracker
	var steps func() uint64
	if k == 0 {
		svc, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, steps = svc, svc.Kernel().Steps
	} else {
		ps, err := NewParallel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr, steps = ps, ps.Steps
	}
	rng := rand.New(rand.NewSource(1))
	placements := make([]ObjectPlacement, 4096)
	for i := range placements {
		placements[i] = ObjectPlacement{Obj: tracker.ObjectID(i + 1), Start: geo.RegionID(rng.Intn(256))}
	}
	if err := tr.Settle(); err != nil {
		t.Fatal(err)
	}
	evs, err := tr.AddObjects(placements)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Settle(); err != nil {
		t.Fatal(err)
	}
	var run stepsRun
	for round := 0; round < 3; round++ {
		s0 := steps()
		for i := 0; i < 512; i++ {
			ev := evs[tracker.ObjectID(1+rng.Intn(len(placements)))]
			nbrs := tr.Tiling().Neighbors(ev.Region())
			if err := ev.MoveTo(nbrs[rng.Intn(len(nbrs))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Settle(); err != nil {
			t.Fatal(err)
		}
		s1 := steps()
		for i := 0; i < 256; i++ {
			u, obj := geo.RegionID(rng.Intn(256)), tracker.ObjectID(1+rng.Intn(len(placements)))
			if _, err := tr.FindObject(u, obj); err != nil {
				t.Fatal(err)
			}
		}
		if err := tr.Settle(); err != nil {
			t.Fatal(err)
		}
		run.moves += s1 - s0
		run.finds += steps() - s1
	}
	run.founds = tr.Founds()
	sort.Slice(run.founds, func(i, j int) bool { return run.founds[i].ID < run.founds[j].ID })
	if len(run.founds) != 3*256 {
		t.Fatalf("K=%d batch=%v: %d founds, want %d", k, batch, len(run.founds), 3*256)
	}
	return run
}

// TestParallelTrackerStepsRelation pins what ParallelService.Steps counts
// on a 4,096-object input. Unbatched, the stacks execute the sequential
// run's events partitioned plus one engine event per find input, at every
// K. Batched, each stack batches only its own objects' messages, so the
// count grows with K while the moves at K = 1 match the sequential run
// event for event; the finds, whose inputs enter as engine events (δ later
// when issued outside the object's home band), batch differently even at
// K = 1. The founds never change.
func TestParallelTrackerStepsRelation(t *testing.T) {
	const findsIssued = 3 * 256
	seq := runStepsScenario(t, 0, false)
	for _, k := range []int{1, 8} {
		par := runStepsScenario(t, k, false)
		if par.moves != seq.moves || par.finds != seq.finds+findsIssued {
			t.Errorf("unbatched K=%d: %d move + %d find steps, want %d + %d (sequential plus one per find input)",
				k, par.moves, par.finds, seq.moves, seq.finds+findsIssued)
		}
		if !reflect.DeepEqual(par.founds, seq.founds) {
			t.Errorf("unbatched K=%d: founds differ from sequential", k)
		}
	}

	seqB := runStepsScenario(t, 0, true)
	prev := stepsRun{}
	for _, k := range []int{1, 2, 8} {
		par := runStepsScenario(t, k, true)
		if k == 1 && par.moves != seqB.moves {
			t.Errorf("batched K=1: %d move steps, sequential ran %d", par.moves, seqB.moves)
		}
		if par.finds <= seqB.finds {
			t.Errorf("batched K=%d: %d find steps, want more than sequential %d", k, par.finds, seqB.finds)
		}
		if k > 1 && (par.moves <= prev.moves || par.finds <= prev.finds) {
			t.Errorf("batched K=%d: %d move + %d find steps, want both above the smaller K's %d + %d",
				k, par.moves, par.finds, prev.moves, prev.finds)
		}
		if !reflect.DeepEqual(par.founds, seqB.founds) {
			t.Errorf("batched K=%d: founds differ from sequential", k)
		}
		prev = par
	}
}

// Modes whose state cannot be shard-confined must be rejected up front,
// and K must divide the fixed logical home partition.
func TestParallelTrackerRejectsUnsupportedModes(t *testing.T) {
	base := parallelCfg()
	base.ParallelTracker = 4
	cases := map[string]func(*Config){
		"K=3":       func(c *Config) { c.ParallelTracker = 3 },
		"K=16":      func(c *Config) { c.ParallelTracker = 16 },
		"chaos":     func(c *Config) { c.Chaos = &chaos.Config{DelayJitter: true} },
		"emulation": func(c *Config) { c.Emulation = &EmulationConfig{} },
		"heartbeat": func(c *Config) { c.Heartbeat = 50 * time.Millisecond },
		"tracer":    func(c *Config) { c.Tracer = trace.New(16) },
		"onfound":   func(c *Config) { c.OnFound = func(tracker.FindResult) {} },
	}
	for name, mutate := range cases {
		cfg := base
		mutate(&cfg)
		if _, err := NewParallel(cfg); err == nil {
			t.Errorf("%s: NewParallel accepted an unsupported config", name)
		}
	}
	if _, err := NewParallel(base); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

// A find for an untracked object or an off-grid origin fails at issue time;
// a failing find input on a remote stack surfaces from Settle.
func TestParallelTrackerFindErrors(t *testing.T) {
	cfg := parallelCfg()
	cfg.ParallelTracker = 2
	ps, err := NewParallel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	if _, err := ps.FindObject(0, 99); err == nil {
		t.Error("find for untracked object accepted")
	}
	if _, err := ps.FindObject(9999, tracker.DefaultObject); err == nil {
		t.Error("find from off-grid region accepted")
	}
	if _, err := ps.Find(250); err != nil { // cross-band: a real engine frame
		t.Fatal(err)
	}
	if err := ps.Settle(); err != nil {
		t.Fatal(err)
	}
	if got := ps.Founds(); len(got) != 1 || got[0].Origin != 250 {
		t.Fatalf("founds %+v, want one result from origin 250", got)
	}
}
