// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the tracking service through its public API
// (core.Service, core.ParallelService) on one of three workloads, checks
// every answer against the paper's properties, and prints one JSON result
// line. See README.md for the workloads, the metrics and how they relate.
//
//	perfbench --workload walk|fanout|parallel --seed N --seconds S --trace 0|1
//	perfbench --steady N --seconds S
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vinestalk/internal/geo"
	"vinestalk/internal/metrics"
)

// The physical broadcast delay δ and VSA output lag e of every workload
// (core.Config's defaults, fixed here so the one-move bound is known).
const (
	delta = 10 * time.Millisecond
	lag   = 5 * time.Millisecond
)

// sizes is the input make-up of a workload.
type sizes struct {
	side    int // grid side, regions
	objects int // objects bulk-attached (fanout, parallel)
	movers  int // objects moved per round (fanout, parallel)
	finds   int // concurrent finds per round (fanout, parallel)
	probes  int // one-outstanding finds per round (fanout, parallel)
	sample  int // objects checked against Theorem 4.8 (fanout, parallel)
	setups  int // set-ups per run; setup_s is their median
	phase   int // rounds of four operations between forced collections (walk)
	block   int // rounds per rate sample (walk)
	window  int // phases (walk) or rounds (fanout, parallel) the model figures count
}

var workloads = map[string]sizes{
	"walk":     {side: 64, setups: 5, phase: 512, block: 16, window: 32},
	"fanout":   {side: 32, objects: 100_000, movers: 2048, finds: 1024, probes: 30, sample: 64, setups: 3, window: 10},
	"parallel": {side: 32, objects: 100_000, movers: 2048, finds: 1024, probes: 30, sample: 64, setups: 3, window: 10},
}

// run is one execution of a workload and everything it measured.
type run struct {
	workload string
	seed     int64
	size     sizes
	dur      time.Duration
	k        int // engine shards of the parallel workload
	tr       *tracer
	m        *meter

	setup    []float64 // seconds per set-up
	attached int       // objects attached per set-up

	attempted, failed int
	problems          []string // operations that failed
	violations        []string // answers that broke a checked property

	moves, finds           int   // completed operations
	moveNs, findNs         int64 // host time of the timed move and find phases
	moveRates, findRates   []float64
	hostLat, virtLat       []float64 // ms; host latency of one-outstanding finds, virtual latency of all
	phaseP99               []float64 // ms; 99th percentile of hostLat within each phase
	cpuPerOp               []float64 // ms; process CPU per operation of each phase (round on fanout)
	moveLedger, findLedger ledgerCounts
	moveEvents, findEvents uint64
	crossFinds             uint64

	model modelWork // the model figures, frozen at the end of the window

	timedFrom   time.Duration // tracer clock at the start of the timed phases
	settles     int           // Settle calls in the timed phases
	timedSteps  []uint64      // engine events per shard in the timed phases
	timedRounds uint64        // engine barrier rounds (Settle calls on one kernel)

	regionBytes float64
}

// modelWork is what the modelled system did, and the live heap it held,
// over a run's first size.window phases or rounds. Those rounds are the
// same inputs on every run of a seed, so these figures do not move with
// how many rounds the host completes in the run's time: per-move work,
// frames and the live heap all grow as a run goes on, and counting the
// whole run would charge a faster program with more of them.
type modelWork struct {
	moves, finds           int
	moveLedger, findLedger ledgerCounts
	moveEvents, findEvents uint64
	crossFinds             uint64
	virtLat                []float64
	heapMiB                float64
}

// freezeModel ends the model window: it copies the counts so far and
// reads the live heap after a forced collection.
func (r *run) freezeModel() {
	r.model = modelWork{r.moves, r.finds, r.moveLedger, r.findLedger, r.moveEvents, r.findEvents,
		r.crossFinds, r.virtLat[:len(r.virtLat):len(r.virtLat)], liveHeapMiB()}
}

func newRun(workload string, seed int64, size sizes, dur time.Duration, trace bool) *run {
	return &run{workload: workload, seed: seed, size: size, dur: dur, k: engineShards(),
		tr: newTracer(trace), m: newMeter()}
}

// engineShards is the parallel tracker's K: the largest of 1, 2, 4, 8 not
// above GOMAXPROCS.
func engineShards() int {
	k := 1
	for k*2 <= 8 && k*2 <= runtime.GOMAXPROCS(0) {
		k *= 2
	}
	return k
}

func (r *run) exec() error {
	switch r.workload {
	case "walk":
		return runWalk(r)
	case "fanout":
		return runFanout(r, false)
	default:
		return runFanout(r, true)
	}
}

// startTimed marks the start of the timed phases after set-up.
func (r *run) startTimed() {
	runtime.GC()
	r.settles = 0
	r.timedFrom = time.Since(r.tr.t0)
}

// beginPhase starts metering a timed phase and forces a collection, so
// that every phase starts with the same heap headroom and no collection
// left over from earlier work lands inside it. The collection's CPU is
// metered with the phase; its wall time is outside the phase's rates and
// latencies. The phase ends with r.m.stop().
func (r *run) beginPhase() {
	r.m.start()
	runtime.GC()
	r.m.skipCycles()
}

// endPhase ends a walk phase of ops operations whose one-outstanding finds
// took lat.
func (r *run) endPhase(ops int, lat []float64) {
	cpu := r.m.stop()
	r.cpuPerOp = append(r.cpuPerOp, cpu.Seconds()*1e3/float64(ops))
	r.phaseP99 = append(r.phaseP99, quantile(lat, 0.99))
}

func (r *run) settle(sys system) error {
	sp := r.tr.beginCounted("core.Settle", total(sys.shardSteps()))
	err := sys.Settle()
	r.tr.endCounted(sp, total(sys.shardSteps()))
	r.settles++
	return err
}

func (r *run) snapshot(sys system) metrics.Snapshot {
	sp := r.tr.begin("metrics.Snapshot")
	s := sys.snapshot()
	r.tr.end(sp)
	return s
}

func (r *run) snapshotDiff(sys system, before metrics.Snapshot) metrics.Snapshot {
	after := r.snapshot(sys)
	sp := r.tr.begin("metrics.Snapshot.Sub")
	d := after.Sub(before)
	r.tr.end(sp)
	return d
}

func (r *run) problem(err error) {
	if len(r.problems) < 10 {
		r.problems = append(r.problems, err.Error())
	}
}

func (r *run) violation(err error) {
	if len(r.violations) < 10 {
		r.violations = append(r.violations, err.Error())
	}
}

// finish runs the end-of-run checks and read-outs on the settled system.
func (r *run) finish(sys system) error {
	if err := checkConservation(sys.snapshot()); err != nil {
		r.violation(err)
	}
	regions := sys.Tiling().NumRegions()
	var n int
	sp := r.tr.begin("tracker.EncodeRegion")
	for u := 0; u < regions; u++ {
		enc, err := sys.encodeRegion(geo.RegionID(u))
		if err != nil {
			return err
		}
		n += len(enc)
	}
	r.tr.end(sp)
	r.regionBytes = float64(n) / float64(regions)
	runtime.KeepAlive(sys)
	return nil
}

func main() {
	workload := flag.String("workload", "", "walk, fanout or parallel")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the timed phases, seconds")
	trace := flag.Int("trace", 0, "1: record spans and print the per-layer metrics")
	steady := flag.Int("steady", 0, "run the gated workloads (walk, fanout) this many times, alternating, and print each metric's quartiles")
	flag.Parse()
	if *steady > 0 {
		if err := runSteady(*steady, *seconds, *trace == 1, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	size, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (walk, fanout, parallel)\n", *workload)
		os.Exit(2)
	}
	r := newRun(*workload, *seed, size, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	env, _ := json.Marshal(map[string]any{"env": map[string]any{
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"workload": r.workload, "seed": r.seed, "seconds": *seconds, "trace": *trace, "engine_shards": r.k,
	}})
	fmt.Println(string(env))
	if err := r.exec(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprint(os.Stderr, r.describe())
	if r.tr.on {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", r.workload, r.seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spans: %d written to %s\n%s", len(r.tr.spans), path, r.tr.summary())
	}
	res := r.result()
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s has no value: too few operations in the run\n", name)
			os.Exit(1)
		}
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		for _, v := range r.violations {
			fmt.Fprintln(os.Stderr, "violation:", v)
		}
		os.Exit(1)
	}
}
