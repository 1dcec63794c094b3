package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *run) result() result {
	res := result{
		Correct:   len(r.violations) == 0 && r.moves > 0 && r.finds > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
	}
	if r.tr.on {
		res.Metrics = r.perLayer()
	} else {
		res.Metrics = r.endToEnd()
	}
	return res
}

func (r *run) ops() float64 { return float64(r.moves + r.finds) }

// endToEnd is what a user of the tracking service sees; see README.md.
func (r *run) endToEnd() map[string]metric {
	w := &r.model
	return map[string]metric{
		"setup_s":          {median(r.setup), "s"},
		"moves_per_s":      {median(r.moveRates), "1/s"},
		"finds_per_s":      {median(r.findRates), "1/s"},
		"find_p50_ms":      {quantile(r.hostLat, 0.50), "ms"},
		"find_p99_ms":      {median(r.phaseP99), "ms"},
		"cpu_ms_per_op":    {median(r.cpuPerOp), "ms"},
		"heap_live_mb":     {w.heapMiB, "MiB"},
		"move_work_hops":   {per(w.moveLedger.protoWork, w.moves), "hops"},
		"find_work_hops":   {per(w.findLedger.protoWork, w.finds), "hops"},
		"find_vlat_p50_ms": {groupedQuantile(w.virtLat, 0.50, quantumMs), "ms_virtual"},
		"find_vlat_p99_ms": {groupedQuantile(w.virtLat, 0.99, quantumMs), "ms_virtual"},
		"frames_per_move":  {per(w.moveLedger.frames, w.moves), "frames"},
	}
}

// perLayer is read from the traced run's spans and the counters recorded
// at the same call boundaries; see README.md for which end-to-end metric
// each should move.
func (r *run) perLayer() map[string]metric {
	w := &r.model
	from := int64(r.timedFrom)
	settle := r.tr.totals("core.Settle", from)
	inputs := r.tr.totals("evader.MoveTo", from)
	finds := r.tr.totals("core.FindObject", from)
	snaps := r.tr.totals("metrics.Snapshot", from)
	var build, attach, attachAllocs []float64
	for _, sp := range r.tr.spans {
		switch sp.Name {
		case "bench.build":
			build = append(build, float64(sp.End-sp.Start)/1e9)
		case "bench.attach":
			attach = append(attach, float64(sp.End-sp.Start)/1e9)
			attachAllocs = append(attachAllocs, float64(sp.Allocs)/float64(r.attached))
		}
	}
	events := total(r.timedSteps)
	maxShard := uint64(0)
	for _, s := range r.timedSteps {
		maxShard = max(maxShard, s)
	}
	return map[string]metric{
		"sim.events_per_move":           {per(int64(w.moveEvents), w.moves), "events"},
		"sim.events_per_find":           {per(int64(w.findEvents), w.finds), "events"},
		"sim.ns_per_event":              {float64(settle.ns) / float64(settle.events), "ns"},
		"sim.events_per_round":          {float64(events) / float64(r.timedRounds), "events"},
		"sim.shard_balance":             {float64(maxShard) * float64(len(r.timedSteps)) / float64(events), "ratio"},
		"sim.cross_sends_per_find":      {per(int64(w.crossFinds), w.finds), "count"},
		"core.build_s":                  {median(build), "s"},
		"core.attach_s":                 {median(attach), "s"},
		"core.attach_allocs_per_object": {median(attachAllocs), "allocs"},
		"core.input_us_per_op":          {float64(inputs.ns+finds.ns) / 1e3 / float64(inputs.n+finds.n), "us"},
		"core.settle_allocs_per_event":  {float64(settle.allocs) / float64(settle.events), "allocs"},
		"core.settle_bytes_per_event":   {float64(settle.nbytes) / float64(settle.events), "B"},
		"core.gc_cpu_ms_per_op":         {r.m.gcCPU * 1e3 / r.ops(), "ms"},
		"core.gc_cycles":                {float64(r.m.gcCycles), "count"},
		"tracker.region_state_bytes":    {r.regionBytes, "B"},
		"metrics.records_per_move":      {per(w.moveLedger.records, w.moves), "records"},
		"metrics.records_per_find":      {per(w.findLedger.records, w.finds), "records"},
		"metrics.snapshot_us":           {float64(snaps.ns) / 1e3 / float64(snaps.n), "us"},
		"cgcast.msgs_per_move":          {per(w.moveLedger.protoMsgs, w.moves), "msgs"},
		"cgcast.msgs_per_find":          {per(w.findLedger.protoMsgs, w.finds), "msgs"},
		"geocast.relays_per_move":       {per(w.moveLedger.relays, w.moves), "hops"},
		"geocast.relays_per_find":       {per(w.findLedger.relays, w.finds), "hops"},
		"vbcast.hops_per_move":          {per(w.moveLedger.vbHops, w.moves), "msgs"},
		"vbcast.hops_per_find":          {per(w.findLedger.vbHops, w.finds), "msgs"},
	}
}

// describe is a human-readable account of the run for standard error.
func (r *run) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed %d: %d attempted, %d failed, %d moves, %d finds, setups %v s\n",
		r.workload, r.seed, r.attempted, r.failed, r.moves, r.finds, r.setup)
	fmt.Fprintf(&b, "totals: %.0f moves/s, %.0f finds/s over the timed phases; %d rate samples\n",
		float64(r.moves)/(float64(r.moveNs)/1e9), float64(r.finds)/(float64(r.findNs)/1e9), len(r.moveRates))
	fmt.Fprintf(&b, "host latency samples %d, virtual latency samples %d (%d in the model window), %s, %d GC cycles in the timed phases\n", len(r.hostLat), len(r.virtLat), len(r.model.virtLat), peakRSS(), r.m.gcCycles)
	for _, p := range r.problems {
		fmt.Fprintln(&b, "failed:", p)
	}
	e2e := r.endToEnd()
	names := make([]string, 0, len(e2e))
	for n := range e2e {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "  %-18s %14.4f %s\n", n, e2e[n].Value, e2e[n].Unit)
	}
	return b.String()
}

func per(n int64, d int) float64 { return float64(n) / float64(d) }

func total(xs []uint64) uint64 {
	var t uint64
	for _, x := range xs {
		t += x
	}
	return t
}

func sub(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; NaN for no
// samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// peakRSS is the process's peak resident set, as the kernel reports it.
func peakRSS() string {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return "peak RSS unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			return "peak RSS " + strings.Join(strings.Fields(line)[1:], " ")
		}
	}
	return "peak RSS unknown"
}

// quantumMs is the virtual clock's quantum: every delay of the modelled
// system is a whole multiple of gcd(δ, e) = 5 ms.
const quantumMs = 5.0

// groupedQuantile is the q-quantile of samples that are whole multiples of
// width, read as grouped data: the samples equal to the order statistic
// are taken as spread evenly over their class of one width, and the
// quantile is interpolated inside it by the share of samples below. A
// plain order statistic of quantized samples moves only when a whole
// class's worth of samples shifts; this one moves with every sample.
func groupedQuantile(xs []float64, q, width float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := q * float64(len(s))
	v := s[min(int(rank), len(s)-1)]
	lo := sort.SearchFloat64s(s, v-width/2)
	hi := sort.SearchFloat64s(s, v+width/2)
	return v - width/2 + width*(rank-float64(lo))/float64(hi-lo)
}
