package tracker

import (
	"sort"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/sim"
)

// Process is Tracker_{u,lvl} of Fig. 2: the cluster process for clust =
// cluster(u, lvl), hosted at the VSA of head region u.
//
// The paper tracks a single evader; the §VII multiple-objects extension is
// realized by keying the figure's entire state vector per tracked object:
// each ObjectID gets its own (c, p, nbrptup, nbrptdown, timer, finding,
// nbrtimeout) tuple, and protocol messages carry the object they concern.
// The structures are independent — with one object this is exactly the
// figure's automaton, and with k objects the state and work multiply by k.
//
// A Process is part of the pure Tracker Automaton: it holds no network or
// kernel handles. Sends, found broadcasts, and instrumentation notes are
// emitted as effects through the automaton's host, and its timer variables
// are recorded deadlines (timerSlot) whose wakeups the host routes back
// via Automaton.TimerFire — which is what lets the same process state be
// serialized, replicated, and replayed by the emulation host.
type Process struct {
	aut    *Automaton
	id     hier.ClusterID
	region geo.RegionID // the head region hosting this replica
	level  int
	backup bool // replica at the alternate head (§VII quorum extension)
	// armedGS counts this process's state vectors whose grow/shrink timer
	// is armed; it rolls up into Automaton.armedGS (see timerSlot.record).
	// An int32 beside backup fits the struct's padding.
	armedGS int32

	objs objTable
}

// objTable is the per-process object-state table: object-major, sorted by
// ObjectID, looked up by binary search. A sorted slice instead of a map
// keeps the encode/decode/replication path linear in live objects with no
// per-iteration sort or map-range allocation, and — together with the
// quiescence eviction below — makes a process's footprint proportional to
// the objects currently rooted through it, not the objects ever seen.
// Entries are pointers because timerSlot wakeups hold *objState backrefs.
type objTable struct {
	s []*objState
}

// search returns the index of obj, or the insertion index and false.
func (t *objTable) search(obj ObjectID) (int, bool) {
	i := sort.Search(len(t.s), func(i int) bool { return t.s[i].obj >= obj })
	return i, i < len(t.s) && t.s[i].obj == obj
}

// get returns the state vector for obj, or nil.
func (t *objTable) get(obj ObjectID) *objState {
	if i, ok := t.search(obj); ok {
		return t.s[i]
	}
	return nil
}

// insert adds a state vector at its sorted position (obj must be absent).
func (t *objTable) insert(st *objState) {
	i, _ := t.search(st.obj)
	t.s = append(t.s, nil)
	copy(t.s[i+1:], t.s[i:])
	t.s[i] = st
}

// insertBatch splices rows — sorted ascending by obj, distinct, and all
// absent from the table — in one backward merge pass: one slice grow and
// O(n+k) moves instead of k binary searches with k O(n) shifts. This is the
// bulk-attach fast path; a duplicate object is a caller bug and panics.
func (t *objTable) insertBatch(rows []*objState) {
	if len(rows) == 0 {
		return
	}
	old := len(t.s)
	t.s = append(t.s, rows...) // grow; tail is overwritten by the merge
	i, j := old-1, len(rows)-1
	for w := len(t.s) - 1; j >= 0; w-- {
		if i >= 0 && t.s[i].obj == rows[j].obj {
			panic("tracker: insertBatch object already present")
		}
		if i >= 0 && t.s[i].obj > rows[j].obj {
			t.s[w] = t.s[i]
			i--
		} else {
			t.s[w] = rows[j]
			j--
		}
	}
}

// remove evicts obj's state vector, if present.
func (t *objTable) remove(obj ObjectID) {
	if i, ok := t.search(obj); ok {
		copy(t.s[i:], t.s[i+1:])
		t.s[len(t.s)-1] = nil
		t.s = t.s[:len(t.s)-1]
	}
}

// len returns the number of live state vectors.
func (t *objTable) len() int { return len(t.s) }

// objState is one object's Fig. 2 state vector at this process. Field
// names mirror the figure: c (child pointer), p (path parent), nbrptup and
// nbrptdown (secondary tracking pointers), the single grow/shrink timer,
// the finding flag (here: the pending find set), and nbrtimeout.
type objState struct {
	pr  *Process
	obj ObjectID

	c         hier.ClusterID
	p         hier.ClusterID
	nbrptup   hier.ClusterID
	nbrptdown hier.ClusterID

	timer      timerSlot
	pending    []FindPayload
	nbrTimeout timerSlot

	// lease and nbrLease implement the §VII heartbeat extension; inert
	// when the network has no heartbeat configuration. lease guards the
	// primary pointers (c, p); nbrLease guards the secondary pointers,
	// which are renewed by the growPar/growNbr re-announcements that
	// refresh propagation triggers.
	lease    timerSlot
	nbrLease timerSlot
}

// timerSlot is one TIOA timer variable of the automaton state: a recorded
// deadline that is either a finite virtual time or ∞ (Forever). The slot
// value is part of the serialized region state; arming and clearing are
// mirrored to the host's wakeup service, whose fires the automaton
// validates against the recorded deadline (stale wakeups are no-ops).
type timerSlot struct {
	st   *objState
	kind timerKind
	at   sim.Time
}

// Set arms the slot to fire at absolute virtual time at; Forever clears.
func (t *timerSlot) Set(at sim.Time) {
	t.record(at)
	pr := t.st.pr
	id := packTimerID(pr.level, t.st.obj, t.kind)
	if at == sim.Forever {
		pr.aut.host.ClearTimer(pr.region, id)
		return
	}
	pr.aut.host.SetTimer(pr.region, id, at)
}

// record writes the slot's deadline without telling the host, keeping the
// armed grow/shrink counters of the process and the automaton in step:
// move-quiescence (Network.MoveQuiescent) reads them instead of scanning
// every object state.
func (t *timerSlot) record(at sim.Time) {
	if t.kind == timerGrowShrink {
		if was, now := t.Armed(), at != sim.Forever; was != now {
			d := int32(1)
			if was {
				d = -1
			}
			t.st.pr.addArmedGS(d)
		}
	}
	t.at = at
}

// SetAfter arms the slot delay after the current time, saturating at ∞.
func (t *timerSlot) SetAfter(delay sim.Time) {
	t.Set(sim.Add(t.st.pr.aut.host.Now(), delay))
}

// Clear disarms the slot (deadline ← ∞).
func (t *timerSlot) Clear() { t.Set(sim.Forever) }

// Deadline returns the recorded deadline, Forever if unarmed.
func (t *timerSlot) Deadline() sim.Time { return t.at }

// Armed reports whether the slot has a finite deadline.
func (t *timerSlot) Armed() bool { return t.at != sim.Forever }

func newProcess(aut *Automaton, id hier.ClusterID, region geo.RegionID) *Process {
	return &Process{
		aut:    aut,
		id:     id,
		region: region,
		level:  aut.h.Level(id),
	}
}

// emit hands an effect to the host on behalf of this process's region.
func (pr *Process) emit(eff any) { pr.aut.host.Emit(pr.region, eff) }

// state returns (lazily creating) the state vector for one object. The
// created vector is exactly the quiescent/initial state, which is what
// makes the eviction in maybeEvict semantics-preserving: evict-then-
// recreate is indistinguishable from having kept the vector around.
func (pr *Process) state(obj ObjectID) *objState {
	if st := pr.objs.get(obj); st != nil {
		return st
	}
	st := &objState{
		pr:        pr,
		obj:       obj,
		c:         hier.NoCluster,
		p:         hier.NoCluster,
		nbrptup:   hier.NoCluster,
		nbrptdown: hier.NoCluster,
	}
	st.timer = timerSlot{st: st, kind: timerGrowShrink, at: sim.Forever}
	st.nbrTimeout = timerSlot{st: st, kind: timerNbrTimeout, at: sim.Forever}
	st.lease = timerSlot{st: st, kind: timerLease, at: sim.Forever}
	st.nbrLease = timerSlot{st: st, kind: timerNbrLease, at: sim.Forever}
	pr.objs.insert(st)
	return st
}

// quiescent reports whether the state vector equals the initial state: all
// four pointers nil, no pending find, and no armed timer of any kind. A
// quiescent vector carries no information the lazily-created initial state
// would not reproduce.
func (st *objState) quiescent() bool {
	return st.c == hier.NoCluster && st.p == hier.NoCluster &&
		st.nbrptup == hier.NoCluster && st.nbrptdown == hier.NoCluster &&
		len(st.pending) == 0 &&
		!st.timer.Armed() && !st.nbrTimeout.Armed() &&
		!st.lease.Armed() && !st.nbrLease.Armed()
}

// maybeEvict drops the state vector if it has quiesced — the object is no
// longer rooted through this process, so its row leaves the table (and the
// region encoding) until a future message legitimately re-creates it. The
// hooks sit at the end of every input action (receive, TimerFire), the
// only places a vector can transition into quiescence.
func (pr *Process) maybeEvict(st *objState) {
	if st.quiescent() {
		pr.objs.remove(st.obj)
	}
}

// slot returns the timer slot of the given kind, or nil.
func (st *objState) slot(kind timerKind) *timerSlot {
	switch kind {
	case timerGrowShrink:
		return &st.timer
	case timerNbrTimeout:
		return &st.nbrTimeout
	case timerLease:
		return &st.lease
	case timerNbrLease:
		return &st.nbrLease
	}
	return nil
}

// addArmedGS moves the armed grow/shrink counters by d.
func (pr *Process) addArmedGS(d int32) {
	pr.armedGS += d
	pr.aut.armedGS += int(d)
}

// setObjs replaces the object table wholesale (a decoded checkpoint, or
// nil to drop the state) and recounts its armed grow/shrink timers.
func (pr *Process) setObjs(objs []*objState) {
	armed := int32(0)
	for _, st := range objs {
		if st.timer.Armed() {
			armed++
		}
	}
	pr.addArmedGS(armed - pr.armedGS)
	pr.objs = objTable{s: objs}
}

// reset returns the process to its initial state (VSA failure/restart),
// clearing armed deadlines through the host.
func (pr *Process) reset() {
	for _, st := range pr.objs.s {
		st.timer.Clear()
		st.nbrTimeout.Clear()
		st.lease.Clear()
		st.nbrLease.Clear()
	}
	pr.setObjs(nil)
}

// Cluster returns the cluster this process tracks for.
func (pr *Process) Cluster() hier.ClusterID { return pr.id }

// Level returns level(clust).
func (pr *Process) Level() int { return pr.level }

// Region returns the head region hosting this replica.
func (pr *Process) Region() geo.RegionID { return pr.region }

// Pointers returns (c, p, nbrptup, nbrptdown) for the default object.
func (pr *Process) Pointers() (c, p, up, down hier.ClusterID) {
	return pr.PointersFor(DefaultObject)
}

// PointersFor returns the pointer vector for one tracked object.
func (pr *Process) PointersFor(obj ObjectID) (c, p, up, down hier.ClusterID) {
	st := pr.objs.get(obj)
	if st == nil {
		return hier.NoCluster, hier.NoCluster, hier.NoCluster, hier.NoCluster
	}
	return st.c, st.p, st.nbrptup, st.nbrptdown
}

// LiveObjects returns how many objects currently hold a state vector at
// this process — the quantity the quiescence eviction keeps proportional
// to objects rooted through the process.
func (pr *Process) LiveObjects() int { return pr.objs.len() }

// Busy reports whether the process holds move-related obligations (an
// armed grow/shrink timer for any object); used for quiescence detection.
func (pr *Process) Busy() bool { return pr.armedGS > 0 }

// receive dispatches a C-gcast delivery to the Fig. 2 input actions of the
// addressed object's state vector.
func (pr *Process) receive(d cgcast.Delivery) {
	env, ok := d.Payload.(envelope)
	if !ok {
		return
	}
	// Client-originated grow/shrink name the level-0 cluster itself (the
	// client broadcast an object detection for this region).
	cid := d.From
	if cid == hier.NoCluster {
		cid = pr.id
	}
	st := pr.state(env.Obj)
	st.sanitize()
	switch d.Kind {
	case KindGrow:
		pr.emit(growNoteEffect{Level: pr.level})
		st.onGrow(cid)
	case KindGrowNbr:
		st.onGrowNbr(cid)
	case KindGrowPar:
		st.onGrowPar(cid)
	case KindShrink:
		st.onShrink(cid)
	case KindShrinkUpd:
		st.onShrinkUpd(cid)
	case KindFind:
		st.onFind(env.Body.([]FindPayload))
	case KindFindQuery:
		st.onFindQuery(cid)
	case KindFindAck:
		st.onFindAck(env.Body.(hier.ClusterID))
	case KindRefresh:
		hops, _ := env.Body.(int)
		st.onRefresh(cid, hops)
	}
	// TIOA semantics: any newly-enabled find output fires (zero-time local
	// steps), so re-evaluate after every state change.
	st.evaluateFind()
	// A message that implied no structure (e.g. a shrink for an unknown
	// object, or a stale replayed frame) leaves the lazily-created vector
	// quiescent — evict it so such traffic never allocates persistent state.
	pr.maybeEvict(st)
}

// send emits a protocol message about this object.
func (st *objState) send(to hier.ClusterID, kind string, body any) {
	pr := st.pr
	pr.emit(sendEffect{From: pr.id, Backup: pr.backup, Obj: st.obj, To: to, Kind: kind, Body: body})
}

// --- Move-related actions (Fig. 2, left column) ---

// onGrow is Input cTOBrcv(〈grow, cid〉): the timer is armed only when the
// process is off the path entirely (c = p = ⊥) and below MAX; c always
// adopts the sender (a newer path supersedes what a pending grow will
// report upward).
func (st *objState) onGrow(cid hier.ClusterID) {
	pr := st.pr
	if st.c == hier.NoCluster && st.p == hier.NoCluster && pr.level != pr.aut.maxLevel {
		st.timer.SetAfter(pr.aut.sched.G[pr.level])
	}
	st.c = cid
	st.renewLease()
}

// onGrowNbr is Input cTOBrcv(〈growNbr, cid〉): the sender connected to the
// path via a lateral link.
func (st *objState) onGrowNbr(cid hier.ClusterID) {
	st.nbrptdown = cid
	st.renewNbrLease()
}

// onGrowPar is Input cTOBrcv(〈growPar, cid〉): the sender connected to the
// path via its hierarchy parent.
func (st *objState) onGrowPar(cid hier.ClusterID) {
	st.nbrptup = cid
	st.renewNbrLease()
}

// onShrink is Input cTOBrcv(〈shrink, cid〉): only deadwood is cleaned — the
// message is ignored unless c still names the shrinking child.
func (st *objState) onShrink(cid hier.ClusterID) {
	pr := st.pr
	if st.c != cid {
		return
	}
	st.c = hier.NoCluster
	if pr.level != pr.aut.maxLevel {
		st.timer.SetAfter(pr.aut.sched.S[pr.level])
	}
}

// onShrinkUpd is Input cTOBrcv(〈shrinkUpd, cid〉): drop secondary pointers
// to a process that left the path.
func (st *objState) onShrinkUpd(cid hier.ClusterID) {
	if st.nbrptup == cid {
		st.nbrptup = hier.NoCluster
	}
	if st.nbrptdown == cid {
		st.nbrptdown = hier.NoCluster
	}
}

// onTimer realizes the two timer-gated outputs, whose preconditions are
// re-checked at expiry (a shrink may have cleared c while the grow timer
// ran, or a grow may have re-attached the branch while the shrink timer
// ran — in both cases no message is sent):
//
//	cTOBsend(〈grow, clust〉, par): c ≠ ⊥ ∧ p = ⊥, par = nbrptup if set
//	  else parent(clust); then p ← par and neighbors learn via
//	  growNbr (lateral) or growPar (vertical).
//	cTOBsend(〈shrink, clust〉, p): c = ⊥ ∧ p ≠ ⊥; then p ← ⊥ and
//	  neighbors learn via shrinkUpd.
func (st *objState) onTimer() {
	st.sanitize()
	pr := st.pr
	h := pr.aut.h
	switch {
	case st.c != hier.NoCluster && st.p == hier.NoCluster && pr.level != pr.aut.maxLevel:
		lateral := st.nbrptup != hier.NoCluster && !pr.aut.noLateral
		par := st.nbrptup
		if !lateral {
			par = h.Parent(pr.id)
		}
		st.p = par
		st.send(par, KindGrow, nil)
		kind := KindGrowPar
		if lateral {
			kind = KindGrowNbr
		}
		for _, b := range h.Nbrs(pr.id) {
			st.send(b, kind, nil)
		}
		st.renewLease()
	case st.c == hier.NoCluster && st.p != hier.NoCluster:
		dest := st.p
		st.p = hier.NoCluster
		st.send(dest, KindShrink, nil)
		for _, b := range h.Nbrs(pr.id) {
			st.send(b, KindShrinkUpd, nil)
		}
		st.lease.Clear()
	}
	st.evaluateFind()
}

// --- Find-related actions (Fig. 2, right column) ---

// onFind is Input cTOBrcv(〈find, cid〉): finding ← true, nbrtimeout ← ∞.
// The pending set generalizes the figure's single finding flag so that
// concurrent finds meeting at one process are all serviced rather than
// conflated; with at most one find in the system it degenerates to the flag.
func (st *objState) onFind(payloads []FindPayload) {
	st.pending = append(st.pending, payloads...)
	st.nbrTimeout.Clear()
}

// onFindQuery is Input cTOBrcv(〈findQuery, cid〉): answer with the best
// pointer toward the path, or stay silent.
func (st *objState) onFindQuery(cid hier.ClusterID) {
	switch {
	case st.c != hier.NoCluster:
		st.send(cid, KindFindAck, st.c)
	case st.nbrptdown != hier.NoCluster:
		st.send(cid, KindFindAck, st.nbrptdown)
	case st.nbrptup != hier.NoCluster:
		st.send(cid, KindFindAck, st.nbrptup)
	}
}

// onFindAck is Input cTOBrcv(〈findAck, dest〉): forward the held find to
// the acked pointer if the process is still searching and still has no
// pointer of its own.
func (st *objState) onFindAck(dest hier.ClusterID) {
	if len(st.pending) == 0 || dest == st.pr.id {
		return
	}
	if st.c != hier.NoCluster || st.nbrptdown != hier.NoCluster {
		return
	}
	if st.nbrptup != hier.NoCluster && st.nbrptup != st.p {
		return
	}
	st.forwardFind(dest)
}

// evaluateFind realizes the eagerly-enabled find outputs of Fig. 2: the
// found broadcast (finding ∧ c = clust), the three direct find forwards,
// and the internal findquery action. It is called after every state change.
func (st *objState) evaluateFind() {
	if len(st.pending) == 0 {
		return
	}
	pr := st.pr
	h := pr.aut.h
	switch {
	case st.c == pr.id:
		// Tracing complete: broadcast found to clients in this and
		// neighboring regions.
		payloads := st.pending
		st.pending = nil
		st.nbrTimeout.Clear()
		pr.emit(foundEffect{From: pr.id, Backup: pr.backup, Obj: st.obj, Payloads: payloads})
	case st.c != hier.NoCluster:
		st.forwardFind(st.c)
	case st.nbrptdown != hier.NoCluster:
		st.forwardFind(st.nbrptdown)
	case st.nbrptup != hier.NoCluster && st.nbrptup != st.p:
		st.forwardFind(st.nbrptup)
	case !st.nbrTimeout.Armed():
		// Internal findquery: ask every neighbor except the path parent,
		// and wait one neighbor round trip. The +1ns margin makes an ack
		// arriving at exactly the round-trip bound win over the timeout
		// (TIOA would resolve the tie either way; the paper intends the
		// ack to count as "received before nbrtimeout expires").
		pr.emit(queryNoteEffect{Level: pr.level})
		st.nbrTimeout.SetAfter(2*pr.aut.unit*sim.Time(pr.aut.geom.N[pr.level]) + 1)
		for _, b := range h.Nbrs(pr.id) {
			if b == st.p {
				continue
			}
			st.send(b, KindFindQuery, nil)
		}
	}
}

// onNbrTimeout realizes the nbrtimeout ≤ now disjunct of the find-forward
// output: no neighbor answered, so escalate to the hierarchy parent (or to
// nbrptup when it coincides with p).
func (st *objState) onNbrTimeout() {
	if len(st.pending) == 0 {
		return
	}
	if st.c != hier.NoCluster || st.nbrptdown != hier.NoCluster {
		// A pointer appeared as the timeout fired; the direct forwards
		// handle it.
		st.evaluateFind()
		return
	}
	dest := st.nbrptup
	if dest == hier.NoCluster {
		dest = st.pr.aut.h.Parent(st.pr.id)
	}
	if dest == hier.NoCluster || dest == st.pr.id {
		return // level MAX with no pointer anywhere: keep holding
	}
	st.forwardFind(dest)
}

// forwardFind sends every held find to dest and clears the searching state.
func (st *objState) forwardFind(dest hier.ClusterID) {
	payloads := st.pending
	st.pending = nil
	st.nbrTimeout.Clear()
	st.send(dest, KindFind, payloads)
}

// --- §VII heartbeat extension ---

// onRefresh renews the lease and heals path breaks: a process that lost its
// state to a VSA failure re-adopts the refreshing child and re-grows toward
// the root; an intact process forwards the refresh along its path parent.
func (st *objState) onRefresh(cid hier.ClusterID, hops int) {
	pr := st.pr
	if pr.aut.hb == nil {
		return
	}
	// TTL: a legal tracking path visits at most MAX+1 levels with at most
	// one lateral hop per level. A refresh that has traveled further is
	// circulating through corrupted pointers (e.g. a lateral p-cycle) and
	// must not keep renewing the garbage's leases.
	if hops > 2*pr.aut.maxLevel+3 {
		return
	}
	st.c = cid
	st.renewLease()
	switch {
	case st.p != hier.NoCluster:
		st.send(st.p, KindRefresh, hops+1)
		// Re-announce the connection kind so neighbors' secondary
		// pointers (and their leases) stay fresh.
		kind := KindGrowPar
		if pr.aut.h.AreNbrs(pr.id, st.p) {
			kind = KindGrowNbr
		}
		for _, b := range pr.aut.h.Nbrs(pr.id) {
			st.send(b, kind, nil)
		}
	case pr.level != pr.aut.maxLevel && !st.timer.Armed():
		st.timer.SetAfter(pr.aut.sched.G[pr.level])
	}
}

// sanitize enforces the per-process type invariants on pointer state, the
// local-checking half of the §VII stabilization recipe: c must be a child,
// a neighbor, or (at level 0) the process itself; p must be a neighbor or
// the hierarchy parent; secondary pointers must be neighbors. Values
// outside these sets can only arise from corruption and are dropped on the
// spot. Only active in heartbeat mode (in normal operation the protocol
// preserves the invariants, which the E5 checker verifies).
func (st *objState) sanitize() {
	pr := st.pr
	if pr.aut.hb == nil {
		return
	}
	h := pr.aut.h
	if c := st.c; c != hier.NoCluster {
		if !(h.IsChild(c, pr.id) || h.AreNbrs(c, pr.id) || (c == pr.id && pr.level == 0)) {
			st.c = hier.NoCluster
		}
	}
	if p := st.p; p != hier.NoCluster {
		if !(h.Parent(pr.id) == p || h.AreNbrs(p, pr.id)) {
			st.p = hier.NoCluster
		}
	}
	if up := st.nbrptup; up != hier.NoCluster && !h.AreNbrs(up, pr.id) {
		st.nbrptup = hier.NoCluster
	}
	if down := st.nbrptdown; down != hier.NoCluster && !h.AreNbrs(down, pr.id) {
		st.nbrptdown = hier.NoCluster
	}
}

// renewLease re-arms the path lease when heartbeats are enabled.
func (st *objState) renewLease() {
	if st.pr.aut.hb == nil {
		return
	}
	st.lease.SetAfter(st.pr.aut.hb.leaseFor(st.pr.level))
}

// renewNbrLease re-arms the secondary-pointer lease.
func (st *objState) renewNbrLease() {
	if st.pr.aut.hb == nil {
		return
	}
	st.nbrLease.SetAfter(st.pr.aut.hb.leaseFor(st.pr.level))
}

// onNbrLeaseExpired drops secondary pointers that stopped being
// re-announced (their holder left the path, or the pointers were
// corrupted state to begin with).
func (st *objState) onNbrLeaseExpired() {
	if st.pr.aut.hb == nil {
		return
	}
	st.nbrptup = hier.NoCluster
	st.nbrptdown = hier.NoCluster
}

// onLeaseExpired tears down stale path state that stopped receiving
// refreshes (e.g. the path below broke at a failed VSA).
func (st *objState) onLeaseExpired() {
	pr := st.pr
	if pr.aut.hb == nil {
		return
	}
	st.sanitize()
	if st.c == hier.NoCluster && st.p == hier.NoCluster {
		return
	}
	st.c = hier.NoCluster
	if st.p != hier.NoCluster {
		dest := st.p
		st.p = hier.NoCluster
		st.send(dest, KindShrink, nil)
	}
	for _, b := range pr.aut.h.Nbrs(pr.id) {
		st.send(b, KindShrinkUpd, nil)
	}
	st.timer.Clear()
}
