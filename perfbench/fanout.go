package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// runFanout bulk-attaches r.size.objects objects with batched C-gcast and
// then runs rounds until the run's time is up. A round moves a seeded
// subset of objects one hop each, all at once, and settles; then issues
// concurrent finds for seeded random objects from seeded random origins
// and settles; then issues probe finds one at a time, each settled before
// the next, whose host latency is what one caller waiting for one find
// sees. With parallel set the same inputs run on core.NewParallel with K
// engine shards.
func runFanout(r *run, parallel bool) error {
	rng := rand.New(rand.NewSource(r.seed))
	side := r.size.side
	regions := side * side
	cfg := core.Config{
		Width:           side,
		AlwaysAliveVSAs: true,
		FormulaGeometry: true,
		BatchCgcast:     true,
		Delta:           delta,
		E:               lag,
		Seed:            r.seed,
		Start:           geo.RegionID(rng.Intn(regions)),
	}
	placements := make([]core.ObjectPlacement, r.size.objects)
	for i := range placements {
		placements[i] = core.ObjectPlacement{Obj: tracker.ObjectID(i + 1), Start: geo.RegionID(rng.Intn(regions))}
	}

	var sys system
	var evs map[tracker.ObjectID]*evader.Evader
	var d int
	for i := 0; i < r.size.setups; i++ {
		sys, evs = nil, nil
		runtime.GC()
		t0 := startStopwatch()
		b := r.tr.begin("bench.build")
		s, dd, err := r.build(cfg, parallel)
		if err != nil {
			return err
		}
		d = dd
		if err := r.settle(s); err != nil {
			return err
		}
		r.tr.end(b)
		a := r.tr.beginCounted("bench.attach", total(s.shardSteps()))
		sp := r.tr.begin("core.AddObjects")
		e, err := s.AddObjects(placements)
		r.tr.end(sp)
		if err == nil {
			err = r.settle(s)
		}
		r.tr.endCounted(a, total(s.shardSteps()))
		if err != nil {
			return err
		}
		r.setup = append(r.setup, t0.elapsed().Seconds())
		sys, evs = s, e
	}
	r.attached = len(placements)
	tiling := sys.Tiling()
	bound := moveBound(d, delta, lag)

	ids := make([]tracker.ObjectID, len(placements))
	for i, p := range placements {
		ids[i] = p.Obj
	}
	var sample []tracker.ObjectID
	movers := make([]tracker.ObjectID, r.size.movers)
	targets := make([]geo.RegionID, r.size.movers)
	type issued struct {
		id  tracker.FindID
		obj tracker.ObjectID
		at  sim.Time
	}
	var finds []issued
	nFound := len(sys.Founds())

	r.startTimed()
	steps0 := sys.shardSteps()
	rounds0 := sys.rounds()
	deadline := time.Now().Add(r.dur)
	for round := 0; round < r.size.window || time.Now().Before(deadline); round++ {
		// Moves: a seeded subset, distinct within the round, one hop each.
		for i := range movers {
			j := i + rng.Intn(len(ids)-i)
			ids[i], ids[j] = ids[j], ids[i]
			movers[i] = ids[i]
			nbrs := tiling.Neighbors(evs[movers[i]].Region())
			targets[i] = nbrs[rng.Intn(len(nbrs))]
		}
		if round == 0 {
			sample = append(sample, movers[:min(r.size.sample, len(movers))]...)
		}
		before := r.snapshot(sys)
		v0 := sys.now()
		st0 := total(sys.shardSteps())
		r.attempted += len(movers)
		var roundCPU time.Duration
		r.beginPhase()
		t0 := startStopwatch()
		ok := 0
		for i, obj := range movers {
			r.tr.startOp()
			sp := r.tr.begin("evader.MoveTo")
			err := evs[obj].MoveTo(targets[i])
			r.tr.end(sp)
			r.tr.endOp()
			if err != nil {
				r.failed++
				r.problem(err)
				continue
			}
			ok++
		}
		err := r.settle(sys)
		ns := t0.elapsed().Nanoseconds()
		roundCPU += r.m.stop()
		if err != nil {
			return err
		}
		r.moveNs += ns
		r.moves += ok
		r.moveRates = append(r.moveRates, float64(ok)/(float64(ns)/1e9))
		r.moveEvents += total(sys.shardSteps()) - st0
		r.moveLedger.add(countLedger(r.snapshotDiff(sys, before)))
		if err := checkMoveBound(sys.now()-v0, bound); err != nil {
			r.violation(fmt.Errorf("round %d: %w", round, err))
		}

		// Concurrent finds, all in flight in one settle window.
		finds = finds[:0]
		before = r.snapshot(sys)
		v0 = sys.now()
		st0 = total(sys.shardSteps())
		cross0 := sys.crossSends()
		r.attempted += r.size.finds
		r.beginPhase()
		t0 = startStopwatch()
		for i := 0; i < r.size.finds; i++ {
			obj := ids[rng.Intn(len(ids))]
			origin := geo.RegionID(rng.Intn(regions))
			r.tr.startOp()
			sp := r.tr.begin("core.FindObject")
			id, err := sys.FindObject(origin, obj)
			r.tr.end(sp)
			r.tr.endOp()
			if err != nil {
				r.failed++
				r.problem(err)
				continue
			}
			finds = append(finds, issued{id, obj, v0})
		}
		err = r.settle(sys)
		ns = t0.elapsed().Nanoseconds()
		roundCPU += r.m.stop()
		if err != nil {
			return err
		}
		r.findNs += ns
		r.findRates = append(r.findRates, float64(len(finds))/(float64(ns)/1e9))

		// Probe finds, one outstanding at a time.
		r.attempted += r.size.probes
		lat0 := len(r.hostLat)
		r.beginPhase()
		for i := 0; i < r.size.probes; i++ {
			obj := ids[rng.Intn(len(ids))]
			origin := geo.RegionID(rng.Intn(regions))
			pv0 := sys.now()
			r.tr.startOp()
			t0 := startStopwatch()
			sp := r.tr.begin("core.FindObject")
			id, err := sys.FindObject(origin, obj)
			r.tr.end(sp)
			if err == nil {
				err = r.settle(sys)
			}
			lat := t0.elapsed()
			r.tr.endOp()
			if err != nil {
				r.failed++
				r.problem(err)
				continue
			}
			r.hostLat = append(r.hostLat, float64(lat.Nanoseconds())/1e6)
			finds = append(finds, issued{id, obj, pv0})
		}
		roundCPU += r.m.stop()
		r.cpuPerOp = append(r.cpuPerOp, roundCPU.Seconds()*1e3/float64(ok+len(finds)))
		r.phaseP99 = append(r.phaseP99, quantile(r.hostLat[lat0:], 0.99))
		r.findEvents += total(sys.shardSteps()) - st0
		r.crossFinds += sys.crossSends() - cross0
		r.findLedger.add(countLedger(r.snapshotDiff(sys, before)))

		// Every find of the round has settled; its result is among the
		// founds reported since the previous round.
		all := sys.Founds()
		got := make(map[tracker.FindID]tracker.FindResult, len(all)-nFound)
		for _, res := range all[nFound:] {
			got[res.ID] = res
		}
		nFound = len(all)
		for _, f := range finds {
			res, done := got[f.id]
			if !done {
				r.failed++
				r.problem(fmt.Errorf("find %d for object %d never completed", f.id, f.obj))
				continue
			}
			if err := checkFound(res, evs[f.obj].Region()); err != nil {
				r.violation(err)
			}
			ft, _ := sys.foundTime(f.id)
			r.virtLat = append(r.virtLat, float64(ft-f.at)/1e6)
			r.finds++
		}
		if round == r.size.window-1 {
			r.freezeModel()
		}
	}
	r.timedSteps = sub(sys.shardSteps(), steps0)
	r.timedRounds = sys.rounds() - rounds0
	if !parallel {
		r.timedRounds = uint64(r.settles)
	}

	h := sys.Hierarchy()
	for _, obj := range sample {
		sp := r.tr.begin("lookahead.Theorem48")
		err := checkTheorem48(h, sys.capture(obj), evs[obj].Trail())
		r.tr.end(sp)
		if err != nil {
			r.violation(fmt.Errorf("object %d: %w", obj, err))
		}
	}
	return r.finish(sys)
}

// build assembles the sequential service or, with parallel set, the
// replica-stack tracker with one engine shard per usable CPU, and warms its
// routing memo. It returns the network diameter D.
func (r *run) build(cfg core.Config, parallel bool) (system, int, error) {
	var sys system
	if parallel {
		cfg.ParallelTracker = r.k
		sp := r.tr.begin("core.NewParallel")
		ps, err := core.NewParallel(cfg)
		r.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sys = parSystem{ps}
	} else {
		sp := r.tr.begin("core.New")
		svc, err := core.New(cfg)
		r.tr.end(sp)
		if err != nil {
			return nil, 0, err
		}
		sys = seqSystem{svc}
	}
	sp := r.tr.begin("geo.Graph.Diameter")
	d := sys.warm()
	r.tr.end(sp)
	return sys, d, nil
}
