package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// samples holds one closed loop's per-op measurements.
type samples struct {
	opSec   []float64 // wall seconds of each op
	allocB  []float64 // Go heap bytes allocated by each op
	mallocs []float64 // heap objects allocated by each op
	failed  int
}

// measure runs the closed loop: one caller, the next op starts when the
// previous one has returned and been checked, until budget has passed.
// restore and check run outside the timed region. With a tracer each op is
// an op span and carries the pprof label the decomposition selects on.
func measure(w workload, budget time.Duration, t *tracer) (*samples, error) {
	s := &samples{}
	var before, after runtime.MemStats
	start := time.Now()
	for time.Since(start) < budget {
		if err := w.restore(); err != nil {
			return nil, fmt.Errorf("restore: %w", err)
		}
		runtime.ReadMemStats(&before)
		var out any
		var err error
		t0 := time.Now()
		if t == nil {
			out, err = w.op(nil)
		} else {
			t.op++
			sp := t.begin("bench", "op")
			pprof.Do(context.Background(), pprof.Labels(opLabel, "1"), func(context.Context) {
				out, err = w.op(t)
			})
			t.end(sp)
		}
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		if err == nil {
			err = w.check(out)
		}
		if err != nil {
			if s.failed < 3 {
				fmt.Fprintf(os.Stderr, "op %d failed: %v\n", len(s.opSec), err)
			}
			s.failed++
		}
		s.opSec = append(s.opSec, d.Seconds())
		s.allocB = append(s.allocB, float64(after.TotalAlloc-before.TotalAlloc))
		s.mallocs = append(s.mallocs, float64(after.Mallocs-before.Mallocs))
	}
	return s, nil
}

// endToEnd condenses an untraced loop into the end-to-end metrics.
// cells_per_s is taken at the median op, so that like op_s.p50 it holds
// still when host interference slows a minority of a run's ops.
// op_s.tail is printed but is not one of the result's metrics: on a shared
// host it measures that interference more than the program.
func endToEnd(w workload, s *samples, setupTimes []float64) result {
	n := len(s.opSec)
	p50 := median(s.opSec)
	m := map[string]metric{
		"setup_s":         {median(setupTimes), "s"},
		"op_s.p50":        {p50, "s"},
		"cells_per_s":     {float64(w.cellsPerOp()) / p50, "1/s"},
		"alloc_mb_per_op": {mean(s.allocB) / 1e6, "MB"},
	}
	for _, k := range []string{"setup_s", "op_s.p50", "cells_per_s", "alloc_mb_per_op"} {
		fmt.Printf("%-16s = %.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	tailV, tailP := tail(s.opSec)
	fmt.Printf("%-16s = %.6g s (not in the result)\n", "op_s.tail", tailV)
	if n > 10 {
		fmt.Printf("  op_s.tail is p%.1f of %d ops (10 beyond it)", tailP, n)
	} else {
		fmt.Printf("  op_s.tail is the maximum: %d ops are too few for 10 beyond a percentile", n)
	}
	fmt.Printf("; setup_s is the median of %d setups\n", len(setupTimes))
	fmt.Printf("fail_share       = %.6g ratio (%d of %d ops failed their check)\n",
		float64(s.failed)/float64(n), s.failed, n)
	kc := w.counts()
	fmt.Printf("spmv per op (computed, CSR layout): %.4g flops, %.4g bytes moved, %.4f flops/byte\n",
		kc.flops, kc.bytes, kc.flops/kc.bytes)
	return result{Correct: s.failed == 0, Attempted: n, Failed: s.failed, Metrics: m}
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-percentile sample that still has at least ten
// samples beyond it, and that percentile. With fewer than eleven samples no
// such sample exists and the maximum (p100) stands in.
func tail(xs []float64) (v, pct float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 11 {
		return s[n-1], 100
	}
	return s[n-11], 100 * float64(n-10) / float64(n)
}

// relErrInf is ‖x−x*‖∞ / ‖x*‖∞.
func relErrInf(x, xstar []float64) float64 {
	num, den := 0.0, 0.0
	for i := range x {
		num = math.Max(num, math.Abs(x[i]-xstar[i]))
		den = math.Max(den, math.Abs(xstar[i]))
	}
	return num / den
}
