package tracker

import (
	"testing"
	"time"

	"vinestalk/internal/emul"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
	"vinestalk/internal/vsa"
)

// Move-quiescence is read from two counters kept in step with the state
// they summarize (Network.moveInflight, Automaton/Process.armedGS). The
// property pinned here: at every instant, each counter equals the full
// scan it replaced — the in-transit registry's move-family counts summed,
// and the armed grow/shrink timers counted over every object table of
// every primary and backup process.

// scanMoveCounters recounts both quantities by the full scan, with the
// move-family test written out independently of moveKind.
func scanMoveCounters(n *Network) (inflight, armed int) {
	for key, cnt := range n.inflight {
		if key.Kind != KindFind && key.Kind != KindFindQuery &&
			key.Kind != KindFindAck && key.Kind != KindRefresh {
			inflight += cnt
		}
	}
	for _, pr := range allProcesses(n.aut) {
		armed += scanArmedGS(pr)
	}
	return inflight, armed
}

// scanArmedGS counts one process's armed grow/shrink timers.
func scanArmedGS(pr *Process) int {
	armed := 0
	for _, st := range pr.objs.s {
		if st.timer.Armed() {
			armed++
		}
	}
	return armed
}

// allProcesses lists every primary and backup process of the automaton.
func allProcesses(a *Automaton) []*Process {
	out := append([]*Process(nil), a.procs...)
	for _, pr := range a.backups {
		if pr != nil {
			out = append(out, pr)
		}
	}
	return out
}

// assertMoveCounters fails the test unless both counters, every
// per-process counter, and MoveQuiescent agree with the full scan, and the
// in-transit registry holds no zero-count key.
func assertMoveCounters(t testing.TB, n *Network) {
	t.Helper()
	inflight, armed := scanMoveCounters(n)
	if n.moveInflight != inflight {
		t.Fatalf("moveInflight = %d, scan of the in-transit registry = %d", n.moveInflight, inflight)
	}
	if n.aut.armedGS != armed {
		t.Fatalf("armed grow/shrink counter = %d, scan of every object table = %d", n.aut.armedGS, armed)
	}
	for _, pr := range allProcesses(n.aut) {
		if got, want := int(pr.armedGS), scanArmedGS(pr); got != want {
			t.Fatalf("process %v (backup %v): armedGS = %d, scan = %d", pr.id, pr.backup, got, want)
		}
	}
	if got, want := n.MoveQuiescent(), inflight == 0 && armed == 0; got != want {
		t.Fatalf("MoveQuiescent = %v, scan says %v", got, want)
	}
	for key, cnt := range n.inflight {
		if cnt <= 0 {
			t.Fatalf("in-transit registry holds %+v with count %d", key, cnt)
		}
	}
}

// runChecked executes every event due at or before until one at a time,
// asserting the counters against the scan after each, and returns how many
// events ran.
func (f *fixture) runChecked(until sim.Time) int {
	f.t.Helper()
	steps := 0
	for f.k.NextEventTime() <= until && f.k.Step() {
		assertMoveCounters(f.t, f.net)
		if steps++; steps > 2_000_000 {
			f.t.Fatal("simulation did not settle")
		}
	}
	return steps
}

// settleChecked is settle with the counters checked after every event.
func (f *fixture) settleChecked() {
	f.t.Helper()
	f.runChecked(sim.Forever - 1)
	if !f.net.MoveQuiescent() {
		f.t.Fatal("event queue drained but network not move-quiescent")
	}
}

// TestMoveCountersMatchScanBulkAttachAndChurn: bulk attach, moves of
// spliced objects, and removal down to the eviction baseline.
func TestMoveCountersMatchScanBulkAttachAndChurn(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	f.settleChecked()
	specs := []AttachSpec{
		{Obj: 7, At: 10}, {Obj: 8, At: 10}, {Obj: 9, At: 10},
		{Obj: 11, At: 3}, {Obj: 12, At: 12},
	}
	evs := attachBulk(t, f, specs)
	assertMoveCounters(t, f.net)
	for _, m := range []struct {
		obj ObjectID
		to  geo.RegionID
	}{{8, 11}, {9, 9}, {11, 7}} {
		if err := evs[m.obj].MoveTo(m.to); err != nil {
			t.Fatal(err)
		}
	}
	if f.runChecked(f.k.Now()+unit) == 0 {
		t.Fatal("moves scheduled no events")
	}
	if f.net.MoveQuiescent() {
		t.Fatal("network move-quiescent in the middle of three moves")
	}
	f.settleChecked()
	for _, sp := range specs {
		if err := f.net.RemoveObject(sp.Obj); err != nil {
			t.Fatal(err)
		}
	}
	f.settleChecked()
}

// TestMoveCountersMatchScanCrashRestart crash-stops the clients of regions
// whose processes hold armed grow/shrink timers in the middle of a move
// cascade (ResetRegion clears them), restarts them after t_restart, and
// moves on.
func TestMoveCountersMatchScanCrashRestart(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 9, tRestart: 4 * unit})
	f.settleChecked()
	if err := f.ev.MoveTo(10); err != nil {
		t.Fatal(err)
	}
	f.runChecked(f.k.Now() + 3*unit)
	var victims []geo.RegionID
	for _, pr := range f.net.aut.procs {
		if pr.Busy() && pr.region != f.ev.Region() {
			victims = append(victims, pr.region)
		}
	}
	if len(victims) == 0 {
		t.Fatal("no process outside the evader's region holds an armed timer mid-cascade")
	}
	failed := make(map[vsa.ClientID]geo.RegionID)
	for _, u := range victims {
		for _, id := range f.layer.ClientsIn(u) {
			failed[id] = u
			f.layer.FailClient(id)
		}
		if f.layer.Alive(u) {
			t.Fatalf("region %v VSA survived the crash of its clients", u)
		}
	}
	assertMoveCounters(t, f.net)
	f.runChecked(f.k.Now() + 2*unit)
	for id, u := range failed {
		if err := f.layer.RestartClient(id, u); err != nil {
			t.Fatal(err)
		}
	}
	f.runChecked(f.k.Now() + 10*unit)
	for _, to := range []geo.RegionID{11, 19, 18} {
		if err := f.ev.MoveTo(to); err != nil {
			t.Fatal(err)
		}
		f.runChecked(f.k.Now() + 200*unit)
	}
}

// TestMoveCountersMatchScanEmulation hosts the automaton on the emulator:
// region state is decoded on every step (DecodeRegion), a leader handoff
// lands mid-cascade, and a whole region's nodes fail and return
// (dropRegionState on failure and restart).
func TestMoveCountersMatchScanEmulation(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 15, alwaysUp: true,
		netOptions: []Option{WithEmulation(time.Millisecond, 50*time.Millisecond)}})
	deployEmulNodes(t, f, 3)
	f.settleChecked()
	em := f.net.Emulator()

	if err := f.ev.MoveTo(14); err != nil {
		t.Fatal(err)
	}
	f.runChecked(f.k.Now() + unit)
	busy := geo.NoRegion
	for _, pr := range f.net.aut.procs {
		if pr.Busy() {
			busy = pr.region
			break
		}
	}
	if busy == geo.NoRegion {
		t.Fatal("no process holds an armed timer mid-cascade")
	}
	em.FailNode(em.Leader(busy))
	assertMoveCounters(t, f.net)
	f.settleChecked()

	if err := f.ev.MoveTo(10); err != nil {
		t.Fatal(err)
	}
	f.runChecked(f.k.Now() + unit)
	busy = geo.NoRegion
	for _, pr := range f.net.aut.procs {
		if pr.Busy() && pr.region != f.ev.Region() {
			busy = pr.region
			break
		}
	}
	if busy == geo.NoRegion {
		t.Fatal("no process outside the evader's region holds an armed timer mid-cascade")
	}
	nodes := em.Members(busy)
	for _, id := range nodes {
		em.FailNode(id)
	}
	if em.Alive(busy) {
		t.Fatalf("region %v survived the failure of all its nodes", busy)
	}
	assertMoveCounters(t, f.net)
	f.runChecked(f.k.Now() + 20*unit)
	for i := range nodes {
		if err := em.AddNode(emul.NodeID(1000+i), busy); err != nil {
			t.Fatal(err)
		}
	}
	f.runChecked(f.k.Now() + 400*unit)
}

// TestMoveCountersMatchScanReplicated runs moves under head replication:
// backup replicas arm the same timers as their primaries, and the backup's
// sends count once the primary head dies.
func TestMoveCountersMatchScanReplicated(t *testing.T) {
	f := newReplicatedFixture(t, 8, 9, false)
	f.settleChecked()
	backupsArmed := false
	for _, to := range []geo.RegionID{10, 18, 19} {
		if err := f.ev.MoveTo(to); err != nil {
			t.Fatal(err)
		}
		for f.k.Step() {
			assertMoveCounters(t, f.net)
			for _, pr := range f.net.aut.backups {
				backupsArmed = backupsArmed || (pr != nil && pr.Busy())
			}
		}
		if !f.net.MoveQuiescent() {
			t.Fatal("replicated network not move-quiescent after settling")
		}
	}
	if !backupsArmed {
		t.Fatal("no backup replica ever held an armed grow/shrink timer")
	}
	lvl1 := f.h.Cluster(f.ev.Region(), 1)
	primary := f.h.Head(lvl1)
	for _, id := range f.layer.ClientsIn(primary) {
		f.layer.FailClient(id)
	}
	assertMoveCounters(t, f.net)
	if err := f.ev.MoveTo(f.tiling.RegionAt(2, 1)); err != nil {
		t.Fatal(err)
	}
	f.runChecked(f.k.Now() + 400*unit)
}

// TestMoveCountersMatchScanFindOnly: find traffic alone — find, findQuery,
// findAck in flight and nbrtimeout armed — never makes the network
// move-busy.
func TestMoveCountersMatchScanFindOnly(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 27, alwaysUp: true})
	f.settleChecked()
	for _, u := range []geo.RegionID{0, 7, 56, 63, 28} {
		if _, err := f.net.Find(u); err != nil {
			t.Fatal(err)
		}
	}
	sawFinds := false
	for f.k.Step() {
		assertMoveCounters(t, f.net)
		if !f.net.MoveQuiescent() {
			t.Fatal("find-only traffic made the network move-busy")
		}
		sawFinds = sawFinds || len(f.net.inflight) > 0
	}
	if !sawFinds {
		t.Fatal("finds put nothing in flight")
	}
	if len(f.founds) != 5 {
		t.Fatalf("%d finds completed, want 5", len(f.founds))
	}
}

// TestMoveQuiescentZeroAlloc pins the check itself allocation-free.
func TestMoveQuiescentZeroAlloc(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 8, start: 27, alwaysUp: true})
	f.settle()
	if allocs := testing.AllocsPerRun(100, func() { f.net.MoveQuiescent() }); allocs != 0 {
		t.Fatalf("MoveQuiescent allocates %v times per call, want 0", allocs)
	}
}

// TestFailedSendLeavesNoInflightEntry: a send the substrate rejects is
// rolled back without leaving a zero-count key in the in-transit registry
// or a stray count in the move counter.
func TestFailedSendLeavesNoInflightEntry(t *testing.T) {
	f := newFixture(t, fixtureConfig{side: 4, start: 5, alwaysUp: true})
	f.settle()
	before := len(f.net.inflight)

	// A cluster-to-cluster send over an invalid route.
	f.net.execSend(sendEffect{From: f.h.Cluster(5, 0), Obj: DefaultObject, To: hier.NoCluster, Kind: KindGrow})
	// A client send to a non-level-0 cluster, and one from a failed client.
	if err := f.net.sendFromClient(DefaultObject, 5, f.h.Cluster(5, 1), KindGrow, nil); err == nil {
		t.Fatal("client send to a level-1 cluster succeeded")
	}
	f.layer.FailClient(6)
	if err := f.net.sendFromClient(DefaultObject, 6, f.h.Cluster(6, 0), KindShrink, nil); err == nil {
		t.Fatal("send from a failed client succeeded")
	}

	if got := len(f.net.inflight); got != before {
		t.Fatalf("failed sends changed the in-transit registry: %d keys, want %d", got, before)
	}
	assertMoveCounters(t, f.net)
	if !f.net.MoveQuiescent() {
		t.Fatal("failed sends left the network move-busy")
	}
}
