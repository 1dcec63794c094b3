package main

import (
	"vinestalk/internal/core"
	"vinestalk/internal/evader"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// system is the part of the public service API the fanout and parallel
// workloads drive. core.Service and core.ParallelService both provide it;
// seqSystem and parSystem add the read-outs whose spelling differs between
// the two (ledgers, step counters, clocks, per-object state).
type system interface {
	AddObjects([]core.ObjectPlacement) (map[tracker.ObjectID]*evader.Evader, error)
	FindObject(geo.RegionID, tracker.ObjectID) (tracker.FindID, error)
	Settle() error
	Founds() []tracker.FindResult
	Hierarchy() *hier.Hierarchy
	Tiling() *geo.GridTiling

	// warm fills the lazy per-source routing memo of every stack's graph
	// and returns the network diameter D.
	warm() int
	// snapshot is the ledger's counter totals (merged over stacks).
	snapshot() metrics.Snapshot
	// now is the virtual instant new inputs are issued at.
	now() sim.Time
	// foundTime is the virtual time of find id's found output.
	foundTime(id tracker.FindID) (sim.Time, bool)
	// capture is the settled state vector of one object.
	capture(obj tracker.ObjectID) *lookahead.State
	// encodeRegion is region u's canonical automaton encoding.
	encodeRegion(u geo.RegionID) ([]byte, error)
	// shardSteps is the events each engine shard has run (one entry for
	// the sequential kernel).
	shardSteps() []uint64
	// rounds is the engine's barrier rounds (0 on the sequential kernel).
	rounds() uint64
	// crossSends is the messages sent between engine shards, counting both
	// the router's cross-partition deliveries and the engine's frames.
	crossSends() uint64
}

type seqSystem struct{ *core.Service }

func (s seqSystem) warm() int                  { return s.Hierarchy().Graph().Diameter() }
func (s seqSystem) snapshot() metrics.Snapshot { return s.Ledger().Snapshot() }
func (s seqSystem) now() sim.Time              { return s.Kernel().Now() }
func (s seqSystem) foundTime(id tracker.FindID) (sim.Time, bool) {
	return s.FoundTime(id)
}
func (s seqSystem) capture(obj tracker.ObjectID) *lookahead.State {
	return lookahead.CaptureObject(s.Network(), obj)
}
func (s seqSystem) encodeRegion(u geo.RegionID) ([]byte, error) {
	return s.Network().Automaton().EncodeRegion(u), nil
}
func (s seqSystem) shardSteps() []uint64 { return []uint64{s.Kernel().Steps()} }
func (s seqSystem) rounds() uint64       { return 0 }
func (s seqSystem) crossSends() uint64   { return s.Router().CrossCount() }

type parSystem struct{ *core.ParallelService }

func (p parSystem) warm() int {
	d := 0
	for i := 0; i < p.K(); i++ {
		d = p.Stack(i).Hierarchy().Graph().Diameter()
	}
	return d
}

func (p parSystem) snapshot() metrics.Snapshot {
	return metrics.MergedSnapshot(p.Ledgers()...)
}

func (p parSystem) now() sim.Time {
	var t sim.Time
	for i := 0; i < p.K(); i++ {
		if n := p.Stack(i).Kernel().Now(); n > t {
			t = n
		}
	}
	return t
}

func (p parSystem) foundTime(id tracker.FindID) (sim.Time, bool) {
	for i := 0; i < p.K(); i++ {
		if t, ok := p.Stack(i).FoundTime(id); ok {
			return t, true
		}
	}
	return 0, false
}

// capture reads the object from the stack executing its logical home
// shard: logical shard l runs on engine shard l·K/L for L home shards.
func (p parSystem) capture(obj tracker.ObjectID) *lookahead.State {
	l, _ := p.HomeOf(obj)
	return lookahead.CaptureObject(p.Stack(l*p.K()/p.HomePartition().K()).Network(), obj)
}

func (p parSystem) encodeRegion(u geo.RegionID) ([]byte, error) { return p.EncodeRegion(u) }

func (p parSystem) shardSteps() []uint64 {
	out := make([]uint64, p.K())
	for i := range out {
		out[i] = p.Engine().Shard(i).Kernel().Steps()
	}
	return out
}

func (p parSystem) rounds() uint64     { return p.Engine().Rounds() }
func (p parSystem) crossSends() uint64 { return p.Engine().CrossSends() }
