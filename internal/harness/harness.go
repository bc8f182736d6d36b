// Package harness drives the paper's experimental constellation (Section 5)
// on the simulated cluster: reference runs, failure-free resilient runs, and
// runs with injected node failures, for every combination of strategy
// (ESRP including the T = 1 ESR case, and IMCR), checkpointing interval T,
// and redundancy φ, at the paper's two failure locations (rank blocks
// starting at 0 and at N/2).
//
// The harness computes the paper's metrics — relative runtime overhead over
// the non-resilient reference, reconstruction overhead, and residual drift
// (Eq. 2) — and renders them in the layout of Tables 1–4 and Figures 2–3.
//
// Runtimes are simulated (LogGP model, see internal/cluster), so a single
// run per setting is deterministic and stands in for the paper's median of
// ≥5 repetitions.
package harness

import (
	"fmt"
	"sort"

	"esrp/internal/cluster"
	"esrp/internal/core"
	"esrp/internal/dist"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/sparse"
)

// Location identifies where the contiguous block of failed ranks starts,
// matching the paper's "Start" (rank 0) and "Center" (rank N/2) rows.
type Location int

// Failure locations of the paper's constellation.
const (
	LocStart Location = iota
	LocCenter
)

// String returns the paper's label for the location.
func (l Location) String() string {
	switch l {
	case LocStart:
		return "Start"
	case LocCenter:
		return "Center"
	default:
		return fmt.Sprintf("Location(%d)", int(l))
	}
}

// Ranks returns the contiguous failed-rank block of ψ nodes for this
// location on an n-node cluster.
func (l Location) Ranks(psi, n int) []int {
	base := 0
	if l == LocCenter {
		base = n / 2
	}
	ranks := make([]int, psi)
	for i := range ranks {
		ranks[i] = base + i
	}
	return ranks
}

// Spec describes one experiment family: one matrix, one cluster size, and
// the sweep over strategies, intervals and redundancy counts.
type Spec struct {
	Name   string      // matrix label for the rendered tables
	Matrix *sparse.CSR // the SPD system
	B      []float64   // right-hand side (nil = b for x*=ones)

	Nodes int // simulated cluster size (paper: 128; defaults to 32)

	Rtol      float64 // outer tolerance (paper: 1e-8)
	InnerRtol float64 // reconstruction tolerance (paper: 1e-14)
	MaxBlock  int     // block Jacobi block bound (paper: 10)

	Ts   []int // checkpoint intervals; for ESRP a leading 1 means "plain ESR"
	Phis []int // redundancy counts φ (= ψ in the failure runs)

	Locations []Location // failure locations (default Start, Center)

	MaxIter   int                // per-run iteration cap (0 = solver default)
	CostModel *cluster.CostModel // nil = cluster default
	Precond   precond.Kind       // zero value = block Jacobi

	// BalanceNNZ runs the whole constellation on the weight-balanced block
	// row distribution instead of the paper's uniform split (see
	// dist.NewBalancedWeightPartition); the report then carries the quality
	// of the balanced layout.
	BalanceNNZ bool

	// Timeline adds one multi-failure scenario run beyond the paper's
	// single-event constellation: the event list (e.g. compiled by
	// internal/faultsim) is injected into one ESRP/ESR solve and the
	// per-event recovery records land in Report.Scenario. Spares bounds the
	// replacement pool for that run (0 = unlimited); once exhausted,
	// recovery falls back to the no-spare shrink and the report shows the
	// cluster getting smaller.
	Timeline []core.FailureSpec
	Spares   int

	// Observe enables span tracing / iteration series on every run of the
	// constellation (nil = off, the instrumentation-free hot path). The
	// reference run's trace is kept on Report.RefTrace.
	Observe *obs.Options
}

func (s Spec) withDefaults() (Spec, error) {
	if s.Matrix == nil {
		return s, fmt.Errorf("harness: missing matrix")
	}
	if s.Name == "" {
		s.Name = "matrix"
	}
	if s.B == nil {
		b := make([]float64, s.Matrix.Rows)
		one := make([]float64, s.Matrix.Rows)
		for i := range one {
			one[i] = 1
		}
		s.Matrix.MulVecRows(b, one, 0, s.Matrix.Rows)
		s.B = b
	}
	if s.Nodes <= 0 {
		s.Nodes = 32
	}
	if s.Rtol <= 0 {
		s.Rtol = 1e-8
	}
	if s.InnerRtol <= 0 {
		s.InnerRtol = 1e-14
	}
	if s.MaxBlock <= 0 {
		s.MaxBlock = 10
	}
	if len(s.Ts) == 0 {
		s.Ts = []int{1, 20, 50, 100}
	}
	if len(s.Phis) == 0 {
		s.Phis = []int{1, 3, 8}
	}
	if len(s.Locations) == 0 {
		s.Locations = []Location{LocStart, LocCenter}
	}
	if s.Precond == precond.Default {
		s.Precond = precond.BlockJacobi
	}
	return s, nil
}

// Cell is one measured setting of the constellation — one row-group entry of
// Table 2/3.
type Cell struct {
	Strategy core.Strategy
	T        int
	Phi      int

	// Failure-free measurement.
	FFTime     float64 // median simulated runtime with resilience, no failure
	FFOverhead float64 // (FFTime − t0)/t0
	FFIters    int
	// FFMaxNodeBytes and FFHaloBytes carry the failure-free run's per-node
	// memory footprint and measured halo traffic (redundancy included).
	FFMaxNodeBytes int64
	FFHaloBytes    int64

	// Failure measurements, one per location (parallel to Spec.Locations).
	Fail []FailureCell
}

// FailureCell is one failure run: ψ = φ simultaneous failures at a location.
type FailureCell struct {
	Location Location
	Psi      int

	Time             float64 // median simulated runtime including recovery
	Overhead         float64 // (Time − t0)/t0
	RecoveryOverhead float64 // median RecoveryTime / t0
	WastedIters      int
	Drift            float64
	Converged        bool
	FailureIter      int // iteration the failure was injected at
}

// Report aggregates one Spec's measurements.
type Report struct {
	Spec Spec

	RefTime  float64 // t0: median simulated runtime of the non-resilient PCG
	RefIters int     // C: iterations of the reference run
	RefDrift float64 // residual drift of the reference (Eq. 2)

	// RefMaxNodeBytes is the largest per-node dynamic solver footprint of
	// the reference run — O(n/s + halo) under the compact local data path.
	RefMaxNodeBytes int64
	// RefHaloBytes is the measured (not planned) halo payload volume the
	// reference run's SpMV exchanges shipped, summed over nodes.
	RefHaloBytes int64

	// Partition describes the quality (per-node nonzero load, imbalance
	// factor, SpMV ghost volume) of the block row distribution the runs
	// used — the uniform split, or the balanced one with Spec.BalanceNNZ.
	Partition *dist.Quality

	// Kernels condenses the per-node SpMV kernel layouts the planner chose
	// for the reference run ("band×30, band+csr×2").
	Kernels string

	ESRP []Cell // sorted by (T, φ); T = 1 entries are plain ESR
	IMCR []Cell // sorted by (T, φ); no T = 1 entry

	// Scenario is the multi-failure scenario run (Spec.Timeline), nil when
	// no timeline was configured.
	Scenario *ScenarioCell

	// RefTrace is the reference run's span timeline (nil unless
	// Spec.Observe enables tracing).
	RefTrace *obs.Trace
}

// ScenarioCell is the measured multi-failure scenario run: one solve under
// the whole event timeline, with the per-event recovery records.
type ScenarioCell struct {
	Strategy core.Strategy
	T        int
	Phi      int
	Spares   int

	Time        float64 // simulated runtime including all recoveries
	Overhead    float64 // (Time − t0)/t0
	Converged   bool
	WastedIters int
	Drift       float64
	ActiveNodes int // nodes still iterating at the end (< N after shrinks)

	Events []core.RecoveryEvent // one record per handled failure event
}

// FailureIteration returns the paper's injection point for interval T: two
// iterations before the end of the checkpoint interval containing iteration
// C/2 — the worst case, where almost all progress since the interval's
// storage stage is lost. For T = 1 (plain ESR) it is simply C/2.
func FailureIteration(c, t int) int {
	if t <= 1 {
		return c / 2
	}
	k := (c / 2) / t
	j := (k+1)*t - 2
	if j < 0 {
		j = 0
	}
	return j
}

// Run executes the full constellation for the spec and returns the report.
func Run(spec Spec) (*Report, error) {
	spec, err := spec.withDefaults()
	if err != nil {
		return nil, err
	}
	rep := &Report{Spec: spec}
	if rep.Partition, err = partitionQuality(spec); err != nil {
		return nil, fmt.Errorf("harness: partition diagnostics: %w", err)
	}

	ref, err := core.Solve(spec.config(core.Config{Strategy: core.StrategyNone}))
	if err != nil {
		return nil, fmt.Errorf("harness: reference run: %w", err)
	}
	if !ref.Converged {
		return nil, fmt.Errorf("harness: reference solver did not converge in %d iterations", ref.Iterations)
	}
	rep.RefTime = ref.SimTime
	rep.RefIters = ref.Iterations
	rep.RefDrift = ref.Drift
	rep.RefMaxNodeBytes = ref.MaxNodeBytes
	rep.RefHaloBytes = ref.HaloBytes
	rep.Kernels = core.CondenseKernels(ref.Kernels)
	rep.RefTrace = ref.Trace

	for _, t := range spec.Ts {
		for _, phi := range spec.Phis {
			cell, err := runCell(spec, esrpConfig(t), t, phi, rep)
			if err != nil {
				return nil, err
			}
			rep.ESRP = append(rep.ESRP, *cell)
		}
	}
	for _, t := range spec.Ts {
		if t <= 1 {
			continue // the paper's IMCR sweep starts at T = 20
		}
		for _, phi := range spec.Phis {
			cell, err := runCell(spec, core.StrategyIMCR, t, phi, rep)
			if err != nil {
				return nil, err
			}
			rep.IMCR = append(rep.IMCR, *cell)
		}
	}
	if len(spec.Timeline) > 0 {
		if rep.Scenario, err = runScenario(spec, rep); err != nil {
			return nil, fmt.Errorf("harness: scenario run: %w", err)
		}
	}
	return rep, nil
}

// runScenario executes the multi-failure timeline once, on the spec's first
// interval/redundancy setting (ESR when that interval is ≤ 2, ESRP
// otherwise), with the configured spare pool. ψ beyond φ is the caller's
// responsibility, exactly as for core.Config.
func runScenario(spec Spec, rep *Report) (*ScenarioCell, error) {
	t := spec.Ts[0]
	phi := spec.Phis[0]
	strat := esrpConfig(t)
	if strat == core.StrategyESR {
		t = 1 // the solve forces T = 1 for ESR; report the interval actually used
	}
	cfg := spec.config(core.Config{Strategy: strat, T: t, Phi: phi})
	cfg.Failures = spec.Timeline
	cfg.Spares = spec.Spares
	res, err := core.Solve(cfg)
	if err != nil {
		return nil, err
	}
	return &ScenarioCell{
		Strategy:    strat,
		T:           t,
		Phi:         phi,
		Spares:      spec.Spares,
		Time:        res.SimTime,
		Overhead:    overhead(res.SimTime, rep.RefTime),
		Converged:   res.Converged,
		WastedIters: res.WastedIters,
		Drift:       res.Drift,
		ActiveNodes: res.ActiveNodes,
		Events:      res.Events,
	}, nil
}

// esrpConfig maps a checkpoint interval to the strategy the paper would use:
// T ≤ 2 degenerates to plain ESR (Section 3), otherwise ESRP.
func esrpConfig(t int) core.Strategy {
	if t <= 2 {
		return core.StrategyESR
	}
	return core.StrategyESRP
}

// runCell measures one (strategy, T, φ) setting: the failure-free run plus
// one failure run per location with ψ = φ simultaneous failures.
func runCell(spec Spec, strat core.Strategy, t, phi int, rep *Report) (*Cell, error) {
	base := core.Config{Strategy: strat, T: t, Phi: phi}
	ff, err := core.Solve(spec.config(base))
	if err != nil {
		return nil, fmt.Errorf("harness: %v T=%d φ=%d failure-free: %w", strat, t, phi, err)
	}
	cell := &Cell{
		Strategy:       strat,
		T:              t,
		Phi:            phi,
		FFTime:         ff.SimTime,
		FFOverhead:     overhead(ff.SimTime, rep.RefTime),
		FFIters:        ff.Iterations,
		FFMaxNodeBytes: ff.MaxNodeBytes,
		FFHaloBytes:    ff.HaloBytes,
	}
	fiter := FailureIteration(rep.RefIters, t)
	for _, loc := range spec.Locations {
		cfg := base
		cfg.Failure = &core.FailureSpec{
			Iteration: fiter,
			Ranks:     loc.Ranks(phi, spec.Nodes),
		}
		fr, err := core.Solve(spec.config(cfg))
		if err != nil {
			return nil, fmt.Errorf("harness: %v T=%d φ=ψ=%d %v: %w", strat, t, phi, loc, err)
		}
		cell.Fail = append(cell.Fail, FailureCell{
			Location:         loc,
			Psi:              phi,
			Time:             fr.SimTime,
			Overhead:         overhead(fr.SimTime, rep.RefTime),
			RecoveryOverhead: fr.RecoveryTime / rep.RefTime,
			WastedIters:      fr.WastedIters,
			Drift:            fr.Drift,
			Converged:        fr.Converged,
			FailureIter:      fiter,
		})
	}
	return cell, nil
}

func overhead(t, t0 float64) float64 { return (t - t0) / t0 }

// partitionQuality analyzes the block row distribution the spec's runs use,
// asking the solver for it (core.PartitionFor) so the report never drifts
// from the distribution actually executed.
func partitionQuality(spec Spec) (*dist.Quality, error) {
	part, err := core.PartitionFor(spec.config(core.Config{}))
	if err != nil {
		return nil, err
	}
	return part.Analyze(spec.Matrix)
}

// config completes a strategy skeleton with the spec's problem and solver
// settings — the single source of the Spec→Config mapping, shared by the
// runs and the partition diagnostics.
func (s Spec) config(cfg core.Config) core.Config {
	cfg.A = s.Matrix
	cfg.B = s.B
	cfg.Nodes = s.Nodes
	cfg.Rtol = s.Rtol
	cfg.InnerRtol = s.InnerRtol
	cfg.MaxBlock = s.MaxBlock
	cfg.MaxIter = s.MaxIter
	cfg.PrecondKind = s.Precond
	cfg.CostModel = s.CostModel
	cfg.BalanceNNZ = s.BalanceNNZ
	cfg.Observe = s.Observe
	return cfg
}

// DriftStats condenses the drift of all failure runs of a report into the
// paper's Table 4 row: reference drift, median drift, and minimum drift
// (the worst accuracy loss) over all ESRP failure experiments.
func (r *Report) DriftStats() (ref, median, min float64) {
	var drifts []float64
	for _, c := range r.ESRP {
		for _, f := range c.Fail {
			drifts = append(drifts, f.Drift)
		}
	}
	if len(drifts) == 0 {
		return r.RefDrift, r.RefDrift, r.RefDrift
	}
	sort.Float64s(drifts)
	return r.RefDrift, drifts[len(drifts)/2], drifts[0]
}
