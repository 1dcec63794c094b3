package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"vinestalk/internal/core"
	"vinestalk/internal/geo"
	"vinestalk/internal/lookahead"
	"vinestalk/internal/metrics"
	"vinestalk/internal/tracker"
)

// small shrinks every workload so the whole matrix runs in seconds.
var small = map[string]sizes{
	"walk":     {side: 16, setups: 2, phase: 16, block: 4, window: 2},
	"fanout":   {side: 16, objects: 2000, movers: 128, finds: 64, probes: 4, sample: 16, setups: 2, window: 2},
	"parallel": {side: 16, objects: 2000, movers: 128, finds: 64, probes: 4, sample: 16, setups: 2, window: 2},
}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloads runs every workload at a small size on two seeds, untraced
// and traced, and checks that it passes its own checks and prints exactly
// the metrics BENCHMARK.json declares, each with its declared unit.
func TestWorkloads(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"walk", "fanout", "parallel"} {
		for _, seed := range []int64{1, 2} {
			for _, trace := range []bool{false, true} {
				r := newRun(w, seed, small[w], 300*time.Millisecond, trace)
				if err := r.exec(); err != nil {
					t.Fatalf("%s seed %d: %v", w, seed, err)
				}
				res := r.result()
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d violations=%v problems=%v",
						w, seed, trace, res.Correct, res.Attempted, res.Failed, r.violations, r.problems)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%s trace %v: %d metrics, BENCHMARK.json declares %d", w, trace, len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("%s trace %v: metric %s missing", w, trace, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w, m.Name, got.Unit, m.Unit)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("%s trace %v: metric %s = %v", w, trace, m.Name, got.Value)
					}
				}
			}
		}
	}
}

func TestCheckFoundRejectsWrongRegion(t *testing.T) {
	r := tracker.FindResult{ID: 1, Object: 3, Origin: 0, FoundAt: 5}
	if err := checkFound(r, 5); err != nil {
		t.Fatalf("right region rejected: %v", err)
	}
	if err := checkFound(r, 6); err == nil {
		t.Fatal("a find found at the wrong region passed")
	}
}

func TestCheckMoveBound(t *testing.T) {
	bound := moveBound(15, delta, lag)
	if bound != 8*15*15*time.Millisecond {
		t.Fatalf("bound = %v", bound)
	}
	if err := checkMoveBound(bound, bound); err != nil {
		t.Fatalf("a move at the bound rejected: %v", err)
	}
	if err := checkMoveBound(bound+1, bound); err == nil {
		t.Fatal("a move past the bound passed")
	}
}

// TestCheckTheorem48RejectsPerturbedTrail compares a real settled state
// with its own trail, then with a trail whose last move went elsewhere.
func TestCheckTheorem48RejectsPerturbedTrail(t *testing.T) {
	svc, err := core.New(core.Config{Width: 8, AlwaysAliveVSAs: true, Start: 9})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Settle(); err != nil {
		t.Fatal(err)
	}
	ev := svc.Evader()
	for _, to := range []geo.RegionID{10, 11, 19} {
		if err := ev.MoveTo(to); err != nil {
			t.Fatal(err)
		}
		if err := svc.Settle(); err != nil {
			t.Fatal(err)
		}
	}
	got := lookahead.Capture(svc.Network())
	trail := ev.Trail()
	if err := checkTheorem48(svc.Hierarchy(), got, trail); err != nil {
		t.Fatalf("the real trail rejected: %v", err)
	}
	bad := append([]geo.RegionID(nil), trail...)
	bad[len(bad)-1] = 12 // a neighbour of 11, but not where the object went
	if err := checkTheorem48(svc.Hierarchy(), got, bad); err == nil {
		t.Fatal("a perturbed trail passed")
	}
}

func TestCheckConservation(t *testing.T) {
	snap := func(sent, delivered, dropped int64) metrics.Snapshot {
		s := metrics.Snapshot{
			MsgCount:  map[string]int64{},
			Delivered: map[string]int64{},
			Drops:     map[string]map[metrics.DropCause]int64{},
		}
		for _, k := range conservedKinds {
			s.MsgCount[k], s.Delivered[k] = 7, 7
		}
		s.MsgCount["transport/hop"], s.Delivered["transport/hop"] = sent, delivered
		if dropped > 0 {
			s.Drops["transport/hop"] = map[metrics.DropCause]int64{metrics.DropLoss: dropped}
		}
		return s
	}
	if err := checkConservation(snap(9, 9, 0)); err != nil {
		t.Fatalf("conserved sends rejected: %v", err)
	}
	if err := checkConservation(snap(9, 8, 0)); err == nil {
		t.Fatal("an undelivered send passed")
	}
	if err := checkConservation(snap(9, 8, 1)); err == nil {
		t.Fatal("a dropped send passed")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", q)
	}
}

func TestGroupedQuantile(t *testing.T) {
	// Four samples in the 10 class and none below: the median sits half-way
	// through the class [7.5, 12.5).
	if q := groupedQuantile([]float64{10, 10, 10, 10}, 0.5, 5); q != 10 {
		t.Fatalf("median = %v", q)
	}
	// One sample of 5 below three of 10: rank 2 lies 1/3 into the 10 class.
	if q := groupedQuantile([]float64{5, 10, 10, 10}, 0.5, 5); math.Abs(q-(7.5+5.0/3)) > 1e-9 {
		t.Fatalf("median = %v", q)
	}
}
