package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// runWalk drives one object through a closed loop of settled operations,
// one outstanding at a time: three seeded random-walk moves, then one find
// from a seeded random origin. Each operation makes the calls
// core.Service.MoveStats / FindStats make: ledger snapshot, input, Settle,
// snapshot difference.
func runWalk(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	var found tracker.FindResult
	cfg := core.Config{
		Width:           r.size.side,
		AlwaysAliveVSAs: true,
		FormulaGeometry: true,
		CountFrames:     true,
		Delta:           delta,
		E:               lag,
		Seed:            r.seed,
		Start:           geo.RegionID(rng.Intn(r.size.side * r.size.side)),
		OnFound:         func(res tracker.FindResult) { found = res },
	}

	var svc *core.Service
	var d int
	for i := 0; i < r.size.setups; i++ {
		svc = nil
		runtime.GC()
		t0 := startStopwatch()
		b := r.tr.begin("bench.build")
		s, dd, err := r.build(cfg, false)
		if err != nil {
			return err
		}
		d = dd
		r.tr.end(b)
		// The one tracked object was placed by core.New; settling its grow
		// cascade is this workload's attach.
		a := r.tr.beginCounted("bench.attach", total(s.shardSteps()))
		err = r.settle(s)
		r.tr.endCounted(a, total(s.shardSteps()))
		if err != nil {
			return err
		}
		r.setup = append(r.setup, t0.elapsed().Seconds())
		svc = s.(seqSystem).Service
	}
	r.attached = 1
	sys := seqSystem{svc}
	ev := svc.Evader()
	tiling := svc.Tiling()
	regions := tiling.NumRegions()
	bound := moveBound(d, delta, lag)

	r.startTimed()
	steps0 := sys.shardSteps()
	deadline := time.Now().Add(r.dur)
	for phase := 0; phase < r.size.window || time.Now().Before(deadline); phase++ {
		// A phase of rounds runs between forced collections; its rates are
		// sampled over short windows, so that a stall of the shared host
		// spoils a few samples rather than the phase.
		r.beginPhase()
		lat0, ops0 := len(r.hostLat), r.moves+r.finds
		for w := 0; w < r.size.phase/r.size.block; w++ {
			var moveNs, findNs int64
			moves, finds := 0, 0
			for round := 0; round < r.size.block; round++ {
				for j := 0; j < 4; j++ {
					r.attempted++
					r.tr.startOp()
					var ns int64
					var err error
					if j < 3 {
						nbrs := tiling.Neighbors(ev.Region())
						ns, err = r.walkMove(sys, ev.MoveTo, nbrs[rng.Intn(len(nbrs))], bound)
						moveNs += ns
						moves++
					} else {
						ns, err = r.walkFind(sys, geo.RegionID(rng.Intn(regions)), ev.Region(), &found)
						findNs += ns
						finds++
					}
					r.tr.endOp()
					if err != nil {
						r.failed++
						r.problem(err)
					}
				}
			}
			r.moveRates = append(r.moveRates, float64(moves)/(float64(moveNs)/1e9))
			r.findRates = append(r.findRates, float64(finds)/(float64(findNs)/1e9))
		}
		r.endPhase(r.moves+r.finds-ops0, r.hostLat[lat0:])
		if phase == r.size.window-1 {
			r.freezeModel()
		}
	}
	r.timedSteps = sub(sys.shardSteps(), steps0)
	r.timedRounds = uint64(r.settles)

	sp := r.tr.begin("lookahead.Theorem48")
	if err := checkTheorem48(svc.Hierarchy(), lookahead.Capture(svc.Network()), ev.Trail()); err != nil {
		r.violation(fmt.Errorf("walk evader: %w", err))
	}
	r.tr.end(sp)
	return r.finish(sys)
}

// walkMove is one settled move with its ledger difference; it returns the
// host nanoseconds the operation took.
func (r *run) walkMove(sys seqSystem, moveTo func(geo.RegionID) error, to geo.RegionID, bound sim.Time) (int64, error) {
	t0 := startStopwatch()
	before := r.snapshot(sys)
	v0 := sys.now()
	steps0 := sys.Kernel().Steps()
	sp := r.tr.begin("evader.MoveTo")
	err := moveTo(to)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	if err := r.settle(sys); err != nil {
		return 0, err
	}
	diff := r.snapshotDiff(sys, before)
	ns := t0.elapsed().Nanoseconds()
	r.moveNs += ns
	r.moves++
	r.moveEvents += sys.Kernel().Steps() - steps0
	r.moveLedger.add(countLedger(diff))
	if err := checkMoveBound(sys.now()-v0, bound); err != nil {
		r.violation(err)
	}
	return ns, nil
}

// walkFind is one settled find from origin for the primary object, which
// is at region at; found is where the service's OnFound callback stores
// the latest result. It returns the host nanoseconds the operation took.
func (r *run) walkFind(sys seqSystem, origin, at geo.RegionID, found *tracker.FindResult) (int64, error) {
	t0 := startStopwatch()
	before := r.snapshot(sys)
	v0 := sys.now()
	steps0 := sys.Kernel().Steps()
	in := startStopwatch()
	sp := r.tr.begin("core.FindObject")
	id, err := sys.FindObject(origin, tracker.DefaultObject)
	r.tr.end(sp)
	if err != nil {
		return 0, err
	}
	if err := r.settle(sys); err != nil {
		return 0, err
	}
	lat := in.elapsed()
	diff := r.snapshotDiff(sys, before)
	ns := t0.elapsed().Nanoseconds()
	if !sys.FindDone(id) || found.ID != id {
		return ns, fmt.Errorf("find %d from %v never completed", id, origin)
	}
	if err := checkFound(*found, at); err != nil {
		r.violation(err)
	}
	ft, _ := sys.foundTime(id)
	r.findNs += ns
	r.finds++
	r.findEvents += sys.Kernel().Steps() - steps0
	r.findLedger.add(countLedger(diff))
	r.hostLat = append(r.hostLat, float64(lat.Nanoseconds())/1e6)
	r.virtLat = append(r.virtLat, float64(ft-v0)/1e6)
	return ns, nil
}
