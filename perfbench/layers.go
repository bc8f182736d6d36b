package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"esrp"
	"esrp/internal/aspmv"
	"esrp/internal/ccache"
	"esrp/internal/cluster"
	"esrp/internal/precond"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// perLayer lists the traced run's metrics, in output order, with units.
var perLayer = []struct{ name, unit string }{
	{"matgen.gen_s", "s"},
	{"aspmv.plan_s", "s"},
	{"aspmv.exchange_us", "us"},
	{"aspmv.halo_bytes_per_step", "count"},
	{"sparse.kernel_build_s", "s"},
	{"sparse.spmv_ns_per_nnz", "ns"},
	{"sparse.spmv_gbps", "GB/s"},
	{"sparse.spmv_flops_per_op", "count"},
	{"sparse.spmv_bytes_per_op", "B"},
	{"sparse.spmv_flops_per_byte", "ratio"},
	{"precond.factor_s", "s"},
	{"precond.apply_ns_per_row", "ns"},
	{"vec.ns_per_elem", "ns"},
	{"cluster.allreduce_us", "us"},
	{"cluster.p2p_us", "us"},
	{"cluster.spawn_us", "us"},
	{"cluster.barrier_wait_share", "ratio"},
	{"core.prepare_s", "s"},
	{"core.iter_us", "us"},
	{"core.recovery_ms", "ms"},
	{"core.useful_step_share", "ratio"},
	{"core.allocs_per_op", "count"},
	{"core.rank_parallel_speedup", "ratio"},
	{"campaign.cell_ms", "ms"},
	{"campaign.serial_cell_ms", "ms"},
	{"campaign.parallel_speedup", "ratio"},
	{"ccache.key_us", "us"},
	{"ccache.get_result_us", "us"},
	{"ccache.get_schedule_us", "us"},
	{"ccache.put_us", "us"},
	{"ccache.hit_share", "ratio"},
	{"ccache.read_bytes_per_cell", "B"},
	{"ccache.write_bytes_per_cell", "B"},
	{"replay.recost_ns_per_event", "ns"},
	{"replay.events_per_cell", "count"},
	{"replay.record_overhead", "ratio"},
	{"self_share.kernels", "ratio"},
	{"self_share.cluster", "ratio"},
	{"self_share.core", "ratio"},
	{"self_share.unattributed", "ratio"},
	{"trace.overhead_s", "s"},
}

// probeMin is how long a micro-probe repeats its call.
const probeMin = 20 * time.Millisecond

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// layerRun collects the traced run's per-layer metrics.
type layerRun struct {
	t      *tracer
	nproc  int
	work   string // directory the cache probe writes under
	m      map[string]float64
	failed []string // probe cross-checks that failed
}

func (l *layerRun) set(name string, v float64) { l.m[name] = v }

func (l *layerRun) fail(format string, args ...any) {
	l.failed = append(l.failed, fmt.Sprintf(format, args...))
}

// timed runs fn inside a probe span and returns its wall seconds.
func (l *layerRun) timed(layer, name string, fn func() error) (float64, error) {
	sp := l.t.probe(layer, name)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0).Seconds()
	l.t.end(sp)
	return d, err
}

// repeat calls fn, doubling the batch, until probeMin has passed; it
// returns the total time and the number of calls timed.
func repeat(fn func()) (time.Duration, int) {
	fn() // warm caches and lazy buffers
	var total time.Duration
	reps := 0
	for n := 1; total < probeMin; n *= 2 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		total += time.Since(t0)
		reps += n
	}
	return total, reps
}

// atProcs runs fn with GOMAXPROCS set to p.
func atProcs(p int, fn func() error) (float64, error) {
	prev := runtime.GOMAXPROCS(p)
	defer runtime.GOMAXPROCS(prev)
	t0 := time.Now()
	err := fn()
	return time.Since(t0).Seconds(), err
}

func randVec(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	return x
}

// genProbe times the workload's input generation (median of three).
func (l *layerRun) genProbe(gen func()) {
	var ts []float64
	for i := 0; i < 3; i++ {
		d, _ := l.timed("matgen", "generate inputs", func() error { gen(); return nil })
		ts = append(ts, d)
	}
	l.set("matgen.gen_s", median(ts))
}

// kernelProbes measures the layers a solve step runs on — plan, SpMV
// kernel, preconditioner, vector ops and halo exchange — at the workload's
// matrices and node count. phis are the plan augmentation levels the op
// uses; 0 must be among them.
func (l *layerRun) kernelProbes(systems []*system, nodes int, phis []int) error {
	var planS, buildS, factorS []float64
	var spmvT, applyT time.Duration
	var spmvNNZ, spmvBytes, applyRows float64
	var exUs, halo []float64
	for _, s := range systems {
		part := esrp.NewBlockPartition(s.a.Rows, nodes)
		var plain *aspmv.Plan
		for _, phi := range phis {
			var plan *aspmv.Plan
			d, err := l.timed("aspmv", fmt.Sprintf("NewPlan+Augment(%d) %s", phi, s.name), func() error {
				var err error
				if plan, err = aspmv.NewPlan(s.a, part); err == nil && phi > 0 {
					err = plan.Augment(phi)
				}
				return err
			})
			if err != nil {
				return err
			}
			planS = append(planS, d)
			if phi == 0 {
				plain = plan
			}
		}
		build := 0.0
		for r := 0; r < nodes; r++ {
			lo, hi := part.Lo(r), part.Hi(r)
			local, err := sparse.NewLocal(s.a, lo, hi, plain.Ghost(r))
			if err != nil {
				return err
			}
			var k sparse.Kernel
			d, _ := l.timed("sparse", "BuildKernel", func() error { k = sparse.BuildKernel(local, sparse.KernelAuto); return nil })
			build += d
			var pc precond.Preconditioner
			d, err = l.timed("precond", "Build", func() error {
				var err error
				pc, err = precond.Build(precond.BlockJacobi, s.a, lo, hi, 10)
				return err
			})
			if err != nil {
				return err
			}
			factorS = append(factorS, d)

			rows := hi - lo
			x, y := randVec(rows+local.G(), int64(r)), make([]float64, rows)
			sp := l.t.probe("sparse", "Kernel.Mul "+k.Name())
			d2, reps := repeat(func() { k.Mul(y, x) })
			l.t.end(sp)
			spmvT += d2
			spmvNNZ += float64(reps * k.NNZ())
			spmvBytes += float64(reps) * (16*float64(k.NNZ()) + 24*float64(rows))
			sp = l.t.probe("precond", "Apply")
			d2, reps = repeat(func() { pc.Apply(y, x[:rows]) })
			l.t.end(sp)
			applyT += d2
			applyRows += float64(reps * rows)
			sink += y[0]
		}
		buildS = append(buildS, build)

		sp := l.t.probe("aspmv", "Exchanger Start+Finish "+s.name)
		us, bytes, err := exchangeRounds(plain, part, nodes, 400)
		l.t.end(sp)
		if err != nil {
			return err
		}
		exUs, halo = append(exUs, us), append(halo, bytes)
	}
	l.set("aspmv.plan_s", mean(planS))
	l.set("sparse.kernel_build_s", mean(buildS))
	l.set("precond.factor_s", mean(factorS))
	l.set("sparse.spmv_ns_per_nnz", float64(spmvT.Nanoseconds())/spmvNNZ)
	l.set("sparse.spmv_gbps", spmvBytes/float64(spmvT.Nanoseconds()))
	l.set("precond.apply_ns_per_row", float64(applyT.Nanoseconds())/applyRows)
	l.set("aspmv.exchange_us", mean(exUs))
	l.set("aspmv.halo_bytes_per_step", mean(halo))

	// The vector-op mix of one PCG step at the per-rank length.
	n := systems[0].a.Rows / nodes
	x, y, z, u, v := randVec(n, 1), randVec(n, 2), randVec(n, 3), randVec(n, 4), randVec(n, 5)
	sp := l.t.probe("vec", "Dot2+Dot3+AxpyPair")
	d, reps := repeat(func() {
		a, b := vec.Dot2(x, y)
		c, e, f := vec.Dot3(x, y, z)
		vec.AxpyPair(1e-12, x, u, -1e-12, y, v)
		sink += a + b + c + e + f
	})
	l.t.end(sp)
	l.set("vec.ns_per_elem", float64(d.Nanoseconds())/float64(3*n*reps))
	return nil
}

// exchangeRounds runs rounds plain halo exchanges (Start+Finish on every
// rank) inside one cluster.Comm.Run; it returns µs and halo bytes per round.
func exchangeRounds(plan *aspmv.Plan, part *esrp.Partition, nodes, rounds int) (float64, float64, error) {
	comm := cluster.New(nodes, cluster.DefaultCostModel())
	halo := make([]int64, nodes)
	t0 := time.Now()
	err := comm.Run(func(nd *cluster.Node) {
		r := nd.Rank()
		ex := plan.NewExchanger(r)
		own, ghost := randVec(part.Hi(r)-part.Lo(r), int64(r)), make([]float64, ex.GhostLen())
		for k := 0; k < rounds; k++ {
			ex.Start(nd, own)
			ex.Finish(nd, ghost)
		}
		halo[r] = ex.HaloBytes()
	})
	us := float64(time.Since(t0).Microseconds()) / float64(rounds)
	total := int64(0)
	for _, h := range halo {
		total += h
	}
	return us, float64(total) / float64(rounds), err
}

// clusterProbes times a 2-scalar allreduce, one ring step of point-to-point
// messages, and a cluster spawn (New + Run with an empty body).
func (l *layerRun) clusterProbes(nodes int) error {
	const rounds, spawns = 2000, 200
	model := cluster.DefaultCostModel()
	d, err := l.timed("cluster", "Allreduce", func() error {
		return cluster.New(nodes, model).Run(func(nd *cluster.Node) {
			buf := []float64{1, 2}
			for k := 0; k < rounds; k++ {
				nd.Allreduce(cluster.OpSum, buf)
			}
		})
	})
	if err != nil {
		return err
	}
	l.set("cluster.allreduce_us", d*1e6/rounds)
	d, err = l.timed("cluster", "Send+Recv ring", func() error {
		return cluster.New(nodes, model).Run(func(nd *cluster.Node) {
			r, n := nd.Rank(), nd.Size()
			buf := make([]float64, 8)
			for k := 0; k < rounds; k++ {
				nd.Send((r+1)%n, 1, buf)
				nd.Release(nd.Recv((r+n-1)%n, 1))
			}
		})
	})
	if err != nil {
		return err
	}
	l.set("cluster.p2p_us", d*1e6/rounds)
	d, err = l.timed("cluster", "New+Run(empty)", func() error {
		for j := 0; j < spawns; j++ {
			if err := cluster.New(nodes, model).Run(func(*cluster.Node) {}); err != nil {
				return err
			}
		}
		return nil
	})
	l.set("cluster.spawn_us", d*1e6/spawns)
	return err
}

// solveCase is one solve of a workload's serial set.
type solveCase struct {
	label string
	sys   *system
	cfg   esrp.Config // carries its Prepared context
	seed  int64       // campaign seed (cache key input)
	// check compares a solve against the workload's own output for the case.
	check func(*esrp.Result) error
}

// solverProbes measures the core, campaign-serial, replay and cache layers
// on the workload's serial set. contexts are the distinct solve contexts
// the op prepares.
func (l *layerRun) solverProbes(cases []solveCase, contexts []esrp.Config) error {
	var prep []float64
	for _, cfg := range contexts {
		d, err := l.timed("core", "esrp.Prepare", func() error { _, err := esrp.Prepare(cfg); return err })
		if err != nil {
			return err
		}
		prep = append(prep, d)
	}
	l.set("core.prepare_s", mean(prep))

	// Steady-state step cost: a failure-free prepared solve with a workspace
	// and a fixed step count, one per matrix (median of three).
	ws := esrp.NewSolveWorkspace()
	const steps = 40
	var stepSec []float64
	seen := map[*system]bool{}
	for _, c := range cases {
		if seen[c.sys] {
			continue
		}
		seen[c.sys] = true
		cfg := c.cfg
		cfg.Failure, cfg.Failures, cfg.Workspace, cfg.MaxIter, cfg.Rtol = nil, nil, ws, steps, 1e-300
		var ts []float64
		for i := 0; i < 3; i++ {
			d, err := l.timed("core", "esrp.Solve fixed steps "+c.label, func() error {
				r, err := esrp.Solve(cfg)
				if err == nil && r.TotalSteps != steps {
					err = fmt.Errorf("%s: %d steps, want %d", c.label, r.TotalSteps, steps)
				}
				return err
			})
			if err != nil {
				return err
			}
			ts = append(ts, d)
		}
		stepSec = append(stepSec, median(ts)/steps)
	}
	l.set("core.iter_us", mean(stepSec)*1e6)

	// Recovery: each failure solve against the failure-free solve of the
	// same strategy and step count, per handled failure event.
	var recSec float64
	events := 0
	for _, c := range cases {
		if c.cfg.Failure == nil && len(c.cfg.Failures) == 0 {
			continue
		}
		cfg := c.cfg
		cfg.Workspace = ws
		var rf *esrp.Result
		dF, err := l.timed("core", "esrp.Solve with failure "+c.label, func() error {
			var err error
			rf, err = esrp.Solve(cfg)
			return err
		})
		if err != nil {
			return err
		}
		free := cfg
		free.Failure, free.Failures, free.MaxIter, free.Rtol = nil, nil, rf.TotalSteps, 1e-300
		dN, err := l.timed("core", "esrp.Solve failure-free "+c.label, func() error { _, err := esrp.Solve(free); return err })
		if err != nil {
			return err
		}
		recSec += dF - dN
		events += len(rf.Events)
	}
	if events > 0 {
		l.set("core.recovery_ms", recSec/float64(events)*1e3)
	}

	// The serial set one solve at a time, at nproc and at one CPU.
	results := make([]*esrp.Result, len(cases))
	serial := func() error {
		for i, c := range cases {
			sp := l.t.probe("core", "esrp.Solve "+c.label)
			r, err := esrp.Solve(c.cfg)
			l.t.end(sp)
			if err != nil {
				return err
			}
			if err := c.check(r); err != nil {
				l.fail("serial solve %s: %v", c.label, err)
			}
			results[i] = r
		}
		return nil
	}
	dN, err := atProcs(l.nproc, serial)
	if err != nil {
		return err
	}
	d1, err := atProcs(1, serial)
	if err != nil {
		return err
	}
	l.set("campaign.serial_cell_ms", dN/float64(len(cases))*1e3)
	l.set("core.rank_parallel_speedup", d1/dN)

	return l.replayCacheProbes(cases, results, dN)
}

// replayCacheProbes records each case's schedule, re-costs it, and pushes
// its result and schedule through a fresh cache directory.
func (l *layerRun) replayCacheProbes(cases []solveCase, plain []*esrp.Result, plainSec float64) error {
	scheds := make([]*esrp.Schedule, len(cases))
	var recordSec, recostSec float64
	events := 0
	other := machines()[1].Model
	for i, c := range cases {
		var res *esrp.Result
		d, err := l.timed("replay", "esrp.RecordSchedule "+c.label, func() error {
			var err error
			res, scheds[i], err = esrp.RecordSchedule(c.cfg)
			return err
		})
		if err != nil {
			return err
		}
		recordSec += d
		events += scheds[i].NumEvents()
		d, err = l.timed("replay", "esrp.Recost", func() error { _, err := esrp.Recost(scheds[i], other); return err })
		if err != nil {
			return err
		}
		recostSec += d
		if rep, err := esrp.Recost(scheds[i], esrp.DefaultCostModel()); err != nil || rep.SimTime != res.SimTime || res.SimTime != plain[i].SimTime {
			l.fail("replay of %s does not reproduce the live solve (err %v)", c.label, err)
		}
	}
	l.set("replay.record_overhead", recordSec/plainSec)
	l.set("replay.events_per_cell", float64(events)/float64(len(cases)))
	l.set("replay.recost_ns_per_event", recostSec*1e9/float64(events))

	cache, _, err := esrp.OpenCampaignCache(filepath.Join(l.work, "ccache-probe"), esrp.CacheMismatchRefresh)
	if err != nil {
		return err
	}
	var keySec, putSec, getRSec, getSSec float64
	digests := map[*system][32]byte{}
	for i, c := range cases {
		// The key includes the matrix digest, amortised over the system's cases.
		var k ccache.Key
		d, _ := l.timed("ccache", "CellInput.Key", func() error {
			md, ok := digests[c.sys]
			if !ok {
				md = ccache.MatrixDigest(c.sys.a, c.sys.b)
				digests[c.sys] = md
			}
			in := ccache.CellInput{
				Matrix: md, Nodes: c.cfg.Nodes, Strategy: c.cfg.Strategy, T: c.cfg.T, Phi: c.cfg.Phi,
				Seed: c.seed, Events: c.cfg.Failures, Rtol: c.cfg.Rtol, MaxBlock: 10, Precond: precond.BlockJacobi,
			}
			if c.cfg.Failure != nil {
				in.Events = []esrp.FailureSpec{*c.cfg.Failure}
			}
			k = in.Key()
			return nil
		})
		keySec += d
		r := plain[i]
		entry := &ccache.ResultEntry{Model: esrp.DefaultCostModel(), Result: ccache.CellResult{
			Converged: r.Converged, Iterations: r.Iterations, TotalSteps: r.TotalSteps, RelResidual: r.RelResidual,
			SimTime: r.SimTime, RecoveryTime: r.RecoveryTime, WastedIters: r.WastedIters, Drift: r.Drift,
			MaxNodeBytes: r.MaxNodeBytes, HaloBytes: r.HaloBytes, BytesSent: r.BytesSent, ActiveNodes: r.ActiveNodes,
			Kernels: esrp.CondenseKernels(r.Kernels), Recoveries: r.Events,
		}}
		d, err := l.timed("ccache", "PutSchedule+PutResult", func() error {
			if err := cache.PutSchedule(k, scheds[i]); err != nil {
				return err
			}
			return cache.PutResult(k, entry)
		})
		if err != nil {
			return fmt.Errorf("cache put %s: %w", c.label, err)
		}
		putSec += d
		d, _ = l.timed("ccache", "GetResult", func() error {
			if _, ok := cache.GetResult(k); !ok {
				l.fail("cache result of %s missing after put", c.label)
			}
			return nil
		})
		getRSec += d
		d, _ = l.timed("ccache", "GetSchedule", func() error {
			if _, ok := cache.GetSchedule(k); !ok {
				l.fail("cache schedule of %s missing after put", c.label)
			}
			return nil
		})
		getSSec += d
	}
	n := float64(len(cases))
	l.set("ccache.key_us", keySec/n*1e6)
	l.set("ccache.put_us", putSec/n*1e6)
	l.set("ccache.get_result_us", getRSec/n*1e6)
	l.set("ccache.get_schedule_us", getSSec/n*1e6)
	st := cache.Stats()
	l.set("ccache.read_bytes_per_cell", float64(st.BytesRead)/n)
	l.set("ccache.write_bytes_per_cell", float64(st.BytesWritten)/n)
	l.set("ccache.hit_share", 0) // no cache on the op path; cached-campaign overrides
	return nil
}

// campaignProbe times run (which returns the cells it completed) with
// nproc workers, then with one worker on one CPU.
func (l *layerRun) campaignProbe(label string, run func(workers int) (int, error)) error {
	cells := 0
	dN, err := l.timed("campaign", label, func() error {
		var err error
		cells, err = run(l.nproc)
		return err
	})
	if err != nil {
		return err
	}
	d1, err := atProcs(1, func() error {
		_, err := l.timed("campaign", label+" on one CPU", func() error { _, err := run(1); return err })
		return err
	})
	if err != nil {
		return err
	}
	l.set("campaign.cell_ms", dN/float64(cells)*1e3)
	l.set("campaign.parallel_speedup", d1/dN)
	return nil
}

// llcBytes reads the size of the highest cache level from sysfs (0 if unknown).
func llcBytes() int64 {
	best, level := int64(0), 0
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		var l int
		var n int64
		var unit string
		fmt.Sscanf(strings.TrimSpace(string(lv)), "%d", &l)
		fmt.Sscanf(strings.TrimSpace(string(sz)), "%d%s", &n, &unit)
		switch unit {
		case "K":
			n <<= 10
		case "M":
			n <<= 20
		}
		if l >= level {
			best, level = n, l
		}
	}
	return best
}

// streamArrayBudget caps one STREAM array; three are allocated at once.
const streamArrayBudget = 128 << 20

// streamProbe runs the STREAM triad as the denominator of the SpMV
// bandwidth share when its arrays can be 4× the last-level cache within the
// memory budget; otherwise it reports why the ratio is left out.
func (l *layerRun) streamProbe() {
	llc := llcBytes()
	need := 4 * llc
	if llc == 0 || need > streamArrayBudget {
		fmt.Printf("stream triad: skipped — last-level cache %d MiB needs arrays of %d MiB each (4×LLC), above the %d MiB per-array budget; "+
			"sparse.spmv_bw_share is not reported, spmv flops/byte is\n", llc>>20, need>>20, streamArrayBudget>>20)
		return
	}
	n := int(need / 8)
	a, b, c := make([]float64, n), randVec(n, 1), randVec(n, 2)
	best := time.Duration(1 << 62)
	sp := l.t.probe("bench", "STREAM triad")
	for rep := 0; rep < 5; rep++ {
		t0 := time.Now()
		for i := range a {
			a[i] = b[i] + 3*c[i]
		}
		best = min(best, time.Since(t0))
	}
	l.t.end(sp)
	gbps := 24 * float64(n) / float64(best.Nanoseconds())
	fmt.Printf("stream triad: %.2f GB/s with 3 arrays of %d MiB (last-level cache %d MiB); sparse.spmv_bw_share = %.3f\n",
		gbps, need>>20, llc>>20, l.m["sparse.spmv_gbps"]/gbps)
}

// traced is the --trace 1 run: an untraced loop and a traced loop over the
// same inputs (their p50 difference is the tracing overhead), a CPU-profile
// decomposition of the traced ops, then the per-layer probes.
func traced(w workload, name string, seed int64, workDir string, budget time.Duration, prov map[string]any) (result, error) {
	base, err := measure(w, budget/2, nil)
	if err != nil {
		return result{}, err
	}
	t := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return result{}, err
	}
	tr, err := measure(w, budget-budget/2, t)
	pprof.StopCPUProfile()
	if err != nil {
		return result{}, err
	}
	layerNs, onPath, nSamples, err := profileLayers(prof.Bytes())
	if err != nil {
		return result{}, err
	}

	// Self time per layer as a share of the traced ops' CPU capacity; the
	// remainder (idle CPUs, GC workers, code outside the module) is
	// unattributed, so the shares add up to one by construction.
	capNs := sum(tr.opSec) * 1e9 * float64(runtime.GOMAXPROCS(0))
	shares := map[string]float64{}
	rest := 1.0
	for layer, ns := range layerNs {
		if layer != "other" {
			shares[layer] = ns / capNs
			rest -= ns / capNs
		}
	}
	shares["unattributed"] = rest

	l := &layerRun{t: t, nproc: runtime.NumCPU(), work: workDir, m: map[string]float64{}}
	l.set("trace.overhead_s", median(tr.opSec)-median(base.opSec))
	l.set("core.allocs_per_op", mean(tr.mallocs))
	l.set("cluster.barrier_wait_share", t.barrierWaitShare())
	kc := w.counts()
	l.set("sparse.spmv_flops_per_op", kc.flops)
	l.set("sparse.spmv_bytes_per_op", kc.bytes)
	l.set("sparse.spmv_flops_per_byte", kc.flops/kc.bytes)
	l.set("self_share.kernels", shares["sparse"]+shares["precond"]+shares["vec"])
	l.set("self_share.cluster", shares["cluster"])
	l.set("self_share.core", shares["core"])
	l.set("self_share.unattributed", shares["unattributed"])
	if err := w.layers(l); err != nil {
		return result{}, fmt.Errorf("layer probes: %w", err)
	}

	fmt.Printf("traced run: %d untraced ops (op_s.p50 %.6g s), %d traced ops (op_s.p50 %.6g s)\n",
		len(base.opSec), median(base.opSec), len(tr.opSec), median(tr.opSec))
	fmt.Println("per-layer metrics (n/a: the layer is in no sampled stack of this workload's ops; the figure is a probe on this workload's inputs):")
	metrics := map[string]metric{}
	for _, pl := range perLayer {
		v, ok := l.m[pl.name]
		if !ok {
			return result{}, fmt.Errorf("probe did not set %s", pl.name)
		}
		metrics[pl.name] = metric{v, pl.unit}
		note := ""
		layer := strings.SplitN(pl.name, ".", 2)[0]
		if !onPath[layer] && layer != "matgen" && layer != "self_share" && layer != "trace" {
			note = "  n/a"
		}
		fmt.Printf("  %-28s = %-12.6g %s%s\n", pl.name, v, pl.unit, note)
	}
	l.streamProbe()

	layers := make([]string, 0, len(shares))
	for k := range shares {
		layers = append(layers, k)
	}
	sort.Slice(layers, func(i, j int) bool { return shares[layers[i]] > shares[layers[j]] })
	fmt.Printf("decomposition of op time (self CPU time per layer ÷ op wall × GOMAXPROCS=%d; %d profile samples):\n",
		runtime.GOMAXPROCS(0), nSamples)
	for _, k := range layers {
		fmt.Printf("  %-14s %6.2f%%\n", k, 100*shares[k])
	}
	fmt.Printf("  groups: kernels (sparse+precond+vec) %.2f%%, cluster %.2f%%, ccache+replay %.2f%%, campaign %.2f%%\n",
		100*(shares["sparse"]+shares["precond"]+shares["vec"]), 100*shares["cluster"],
		100*(shares["ccache"]+shares["replay"]), 100*shares["campaign"])

	stem := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, seed))
	if err := os.WriteFile(stem+".cpu.pprof", prof.Bytes(), 0o644); err != nil {
		return result{}, err
	}
	if err := writeJSONFile(stem+".spans.json", map[string]any{
		"provenance": prov, "decomposition": shares, "spans": t.spans,
	}); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s.spans.json\n", len(t.spans), stem)
	for _, f := range l.failed {
		fmt.Fprintln(os.Stderr, "probe check failed:", f)
	}

	n := len(base.opSec) + len(tr.opSec)
	failed := base.failed + tr.failed
	return result{Correct: failed == 0 && len(l.failed) == 0, Attempted: n, Failed: failed, Metrics: metrics}, nil
}
