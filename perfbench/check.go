package main

import (
	"fmt"
	"strings"

	"vinestalk/internal/cgcast"
	"vinestalk/internal/geo"
	"vinestalk/internal/hier"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/metrics"
	"vinestalk/internal/sim"
	"vinestalk/internal/tracker"
)

// The properties every run checks. Each takes the program's answer and
// what the method says it must be, so the tests can hand it a wrong answer.

// checkFound: a find's found output occurs at the region hosting the
// object (§III tracking-service spec); the object is still while the find
// runs.
func checkFound(r tracker.FindResult, at geo.RegionID) error {
	if r.FoundAt != at {
		return fmt.Errorf("find %d for object %d from %v: found at %v, object is at %v",
			r.ID, r.Object, r.Origin, r.FoundAt, at)
	}
	return nil
}

// moveBound is the non-amortized one-move time bound 8·D·(δ+e)
// (Theorem 4.9's per-move form).
func moveBound(d int, delta, e sim.Time) sim.Time {
	return 8 * sim.Time(d) * (delta + e)
}

// checkMoveBound: a settled move (or a round of concurrent one-hop moves,
// which are independent) completes within the one-move bound.
func checkMoveBound(elapsed, bound sim.Time) error {
	if elapsed > bound {
		return fmt.Errorf("move settled after %v, beyond the one-move bound 8·D·(δ+e) = %v", elapsed, bound)
	}
	return nil
}

// checkTheorem48: the look-ahead of an object's settled state equals the
// atomic-move spec applied to its trail (Theorem 4.8), computed by the
// lookahead module independently of the tracker.
func checkTheorem48(h *hier.Hierarchy, got *lookahead.State, trail []geo.RegionID) error {
	want, err := lookahead.AtomicMoveSeq(h, trail)
	if err != nil {
		return err
	}
	if diff := lookahead.Equal(lookahead.LookAhead(got), want); diff != "" {
		return fmt.Errorf("Theorem 4.8: lookAhead(state) != atomicMoveSeq(trail): %s", diff)
	}
	return nil
}

// conservedKinds are the point-to-point transports, whose every send ends
// in exactly one delivery or one named drop once the queue drains.
var conservedKinds = []string{"transport/client", "transport/hop", "transport/geocast"}

// checkConservation: with VSAs always alive nothing may be dropped, so
// sent − delivered = Σ drops = 0 exactly for every point-to-point kind.
func checkConservation(s metrics.Snapshot) error {
	for _, k := range conservedKinds {
		var drops int64
		for _, v := range s.Drops[k] {
			drops += v
		}
		if sent, got := s.MsgCount[k], s.Delivered[k]; sent-got != drops || drops != 0 {
			return fmt.Errorf("send conservation on %s: sent %d, delivered %d, dropped %d", k, sent, got, drops)
		}
	}
	return nil
}

// ledgerCounts is the part of a ledger difference the metrics read.
type ledgerCounts struct {
	protoMsgs int64 // C-gcast protocol messages, proto/*
	protoWork int64 // their hop work
	records   int64 // message, delivery and drop records of every kind
	relays    int64 // geocast relay hops, transport/geocast work
	vbHops    int64 // V-bcast hop sends, transport/hop
	frames    int64 // C-gcast wire frames
}

func countLedger(d metrics.Snapshot) ledgerCounts {
	var c ledgerCounts
	for k, v := range d.MsgCount {
		c.records += v
		if strings.HasPrefix(k, "proto/") {
			c.protoMsgs += v
		}
	}
	for k, v := range d.HopWork {
		if strings.HasPrefix(k, "proto/") {
			c.protoWork += v
		}
	}
	for _, v := range d.Delivered {
		c.records += v
	}
	c.records += d.TotalDrops()
	c.relays = d.HopWork["transport/geocast"]
	c.vbHops = d.MsgCount["transport/hop"]
	c.frames = d.MsgCount[cgcast.FrameKind]
	return c
}

func (c *ledgerCounts) add(o ledgerCounts) {
	c.protoMsgs += o.protoMsgs
	c.protoWork += o.protoWork
	c.records += o.records
	c.relays += o.relays
	c.vbHops += o.vbHops
	c.frames += o.frames
}
