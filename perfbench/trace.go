package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// span is one call the benchmark made into a layer of the program.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run began
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 at top level
	Op     int64  `json:"op"`     // the move or find this span serves, 0 outside one
	// Counts over the span, recorded for calls that run the engine.
	Events uint64 `json:"events,omitempty"`
	Allocs uint64 `json:"allocs,omitempty"`
	Bytes  uint64 `json:"bytes,omitempty"`
}

// tracer keeps spans in memory while a traced run executes; write stores
// them when the run ends. A tracer that is off records nothing, so the
// untraced runs that give the end-to-end metrics pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	open  []int32
	op    int64 // id of the operation in progress
	ops   int64 // last operation id handed out
	rt    []rtmetrics.Sample
}

func newTracer(on bool) *tracer {
	t := &tracer{on: on, t0: time.Now(), rt: runtimeSamples()}
	if on {
		t.spans = make([]span, 0, 1<<18)
	}
	return t
}

// startOp gives the spans that follow, until endOp, a fresh operation id.
func (t *tracer) startOp() { t.ops++; t.op = t.ops }
func (t *tracer) endOp()   { t.op = 0 }

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	i := int32(len(t.spans) - 1)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// beginCounted opens a span that also records the engine events it runs
// and the Go heap allocations made inside it; steps is the engine's step
// counter at the start.
func (t *tracer) beginCounted(name string, steps uint64) int32 {
	if !t.on {
		return -1
	}
	objs, bytes := t.allocs()
	i := t.begin(name)
	t.spans[i].Events, t.spans[i].Allocs, t.spans[i].Bytes = steps, objs, bytes
	return i
}

func (t *tracer) endCounted(i int32, steps uint64) {
	if i < 0 {
		return
	}
	objs, bytes := t.allocs()
	s := &t.spans[i]
	s.Events, s.Allocs, s.Bytes = steps-s.Events, objs-s.Allocs, bytes-s.Bytes
	t.end(i)
}

func (t *tracer) allocs() (objs, bytes uint64) {
	rtmetrics.Read(t.rt)
	return t.rt[rtAllocObjects].Value.Uint64(), t.rt[rtAllocBytes].Value.Uint64()
}

// spanTotals sums duration and counts over the spans named name that
// started at or after from.
type spanTotals struct {
	n                      int
	ns                     int64
	events, allocs, nbytes uint64
}

func (t *tracer) totals(name string, from int64) spanTotals {
	var s spanTotals
	for _, sp := range t.spans {
		if sp.Name == name && sp.Start >= from {
			s.n++
			s.ns += sp.End - sp.Start
			s.events += sp.Events
			s.allocs += sp.Allocs
			s.nbytes += sp.Bytes
		}
	}
	return s
}

// selfTimes is each span name's total self time: its duration minus the
// time its child spans cover.
func (t *tracer) selfTimes() map[string]int64 {
	self := make(map[string]int64)
	for _, sp := range t.spans {
		self[sp.Name] += sp.End - sp.Start
		if sp.Parent >= 0 {
			self[t.spans[sp.Parent].Name] -= sp.End - sp.Start
		}
	}
	return self
}

// layerSelfTimes folds selfTimes by layer, the span name's first element.
func (t *tracer) layerSelfTimes() map[string]int64 {
	out := make(map[string]int64)
	for name, ns := range t.selfTimes() {
		out[strings.SplitN(name, ".", 2)[0]] += ns
	}
	return out
}

// write stores the spans as JSON lines, followed by one line of per-layer
// self time in nanoseconds.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			f.Close()
			return err
		}
	}
	if err := enc.Encode(map[string]any{"self_ns": t.layerSelfTimes()}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary renders per-layer self time, largest first.
func (t *tracer) summary() string {
	self := t.layerSelfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "self %-10s %10.1f ms\n", n, float64(self[n])/1e6)
	}
	return b.String()
}

// Go runtime counters read at span and phase boundaries.
const (
	rtAllocObjects = iota
	rtAllocBytes
	rtGCCPU
	rtGCCycles
	rtHeapLive
)

func runtimeSamples() []rtmetrics.Sample {
	return []rtmetrics.Sample{
		rtAllocObjects: {Name: "/gc/heap/allocs:objects"},
		rtAllocBytes:   {Name: "/gc/heap/allocs:bytes"},
		rtGCCPU:        {Name: "/cpu/classes/gc/total:cpu-seconds"},
		rtGCCycles:     {Name: "/gc/cycles/total:gc-cycles"},
		rtHeapLive:     {Name: "/gc/heap/live:bytes"},
	}
}

// meter accumulates process CPU, GC CPU and GC cycles over the timed
// phases of a run.
type meter struct {
	cpu      time.Duration
	gcCPU    float64 // seconds
	gcCycles uint64

	cpu0   time.Duration
	gcCPU0 float64
	cyc0   uint64
	rt     []rtmetrics.Sample
}

func newMeter() *meter { return &meter{rt: runtimeSamples()} }

func (m *meter) start() {
	m.cpu0 = processCPU()
	rtmetrics.Read(m.rt)
	m.gcCPU0, m.cyc0 = m.rt[rtGCCPU].Value.Float64(), m.rt[rtGCCycles].Value.Uint64()
}

// skipCycles leaves the collections run since start out of gcCycles, which
// counts only those the phase's own allocations trigger.
func (m *meter) skipCycles() {
	rtmetrics.Read(m.rt)
	m.cyc0 = m.rt[rtGCCycles].Value.Uint64()
}

// stop ends the phase and returns the process CPU it took.
func (m *meter) stop() time.Duration {
	cpu := processCPU() - m.cpu0
	m.cpu += cpu
	rtmetrics.Read(m.rt)
	m.gcCPU += m.rt[rtGCCPU].Value.Float64() - m.gcCPU0
	m.gcCycles += m.rt[rtGCCycles].Value.Uint64() - m.cyc0
	return cpu
}

// stopwatch measures the host time of one timed interval: the smaller of
// its wall time and the process CPU time it used. The tracking service's
// sequential engine runs on one thread, so there this is the wall time
// less the time the host ran other work. The benchmark shares a VM whose
// hypervisor steals CPU in bursts of milliseconds, and 0.4–10% of it over
// minutes, which moved wall-clock figures by as much as their bound. When
// the program keeps more than one thread busy (the parallel workload's
// engine shards), its CPU time exceeds the wall time and the wall time is
// what is read.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startStopwatch() stopwatch { return stopwatch{time.Now(), processCPU()} }

func (s stopwatch) elapsed() time.Duration {
	return min(time.Since(s.wall), processCPU()-s.cpu)
}

// processCPU is CLOCK_PROCESS_CPUTIME_ID: the user plus system CPU time
// of every thread of the process so far, to the nanosecond. Time the host
// gives to other work, its hypervisor's steal included, is not counted.
func processCPU() time.Duration {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// liveHeapMiB forces a collection and returns the heap it found live.
func liveHeapMiB() float64 {
	runtime.GC()
	s := runtimeSamples()
	rtmetrics.Read(s)
	return float64(s[rtHeapLive].Value.Uint64()) / (1 << 20)
}
