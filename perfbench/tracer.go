package main

import (
	"time"

	"esrp"
)

// opLabel is the pprof label key the traced loop puts on each op; the
// goroutines an op starts inherit it, so profile samples select on it.
const opLabel = "perfbench_op"

// span is one timed call from the benchmark into a layer.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 = none
	Op     int    `json:"op"`     // op (or probe) id shared by the span's children
}

// tracer keeps spans in memory and the host telemetry of the traced ops.
// A nil *tracer records nothing, so the untraced loop passes nil. Only the
// benchmark's own goroutine calls it.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	op    int

	barrier  *esrp.BarrierStats // fat-solve: shared by every traced solve
	waitNs   float64            // campaign barrier wait summed over members
	memberNs float64            // nodes × solve wall: time members were alive

	cells int64
	cache esrp.CampaignCacheCounters
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// probe starts a new op id for a probe and opens its span.
func (t *tracer) probe(layer, name string) int {
	t.op++
	return t.begin(layer, name)
}

// barrierStats returns the shared barrier telemetry for traced solves
// (nil when untraced, which keeps the solver's uninstrumented path).
func (t *tracer) barrierStats(nodes int) *esrp.BarrierStats {
	if t == nil {
		return nil
	}
	if t.barrier == nil {
		t.barrier = esrp.NewBarrierStats(nodes)
	}
	return t.barrier
}

func (t *tracer) addMemberTime(nodes int, wallSec float64) {
	if t != nil {
		t.memberNs += float64(nodes) * wallSec * 1e9
	}
}

// addCampaign folds one traced campaign's host telemetry in.
func (t *tracer) addCampaign(rec *esrp.HostRecorder, nodes int) {
	tel := rec.Telemetry()
	t.waitNs += float64(tel.BarrierWaitNs)
	t.memberNs += float64(nodes) * float64(tel.BusyNs)
	t.cells += int64(tel.TotalCells)
	if c := tel.Cache; c != nil {
		t.cache.ResultHits += c.ResultHits
		t.cache.ScheduleHits += c.ScheduleHits
		t.cache.Misses += c.Misses
		t.cache.BytesRead += c.BytesRead
		t.cache.BytesWritten += c.BytesWritten
	}
}

// barrierWaitShare is host barrier wait per member-second of solve time.
func (t *tracer) barrierWaitShare() float64 {
	wait := t.waitNs
	if t.barrier != nil {
		wait += float64(t.barrier.TotalWaitNs())
	}
	return wait / t.memberNs
}
