package core

import (
	"runtime/debug"
	"testing"
)

// perIterationAllocs measures the marginal heap allocations of one extra
// iteration of solver: two fixed-length solves (unreachable tolerance) that
// differ only in MaxIter, sharing a Prepared context and a Workspace exactly
// like campaign cells do. Setup allocations (goroutines, exchanger, result
// gather) are identical on both sides and cancel; what remains is the
// steady-state loop — solver vector updates, Exchanger Start/Finish, and
// the arena collectives — which the zero-allocation hot path must keep off
// the heap entirely.
func perIterationAllocs(t *testing.T, solver func(Config) (*Result, error), mut func(*Config)) float64 {
	t.Helper()
	base := baseConfig(t)
	base.Rtol = 1e-300 // never converges: iteration count == MaxIter
	mut(&base)

	prep, err := Prepare(base)
	if err != nil {
		t.Fatal(err)
	}
	base.Prepared = prep
	base.Workspace = NewWorkspace()

	solve := func(iters int) {
		cfg := base
		cfg.MaxIter = iters
		res, err := solver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != iters {
			t.Fatalf("expected fixed-length run of %d iterations, got %d", iters, res.Iterations)
		}
	}
	solve(130) // warm the workspace, pools and arena banks
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const short, long = 30, 130
	aShort := testing.AllocsPerRun(5, func() { solve(short) })
	aLong := testing.AllocsPerRun(5, func() { solve(long) })
	return (aLong - aShort) / float64(long-short)
}

// TestSolveIterationZeroAlloc gates the steady-state CG iteration at zero
// heap allocations per iteration across the strategies: the plain loop, the
// every-iteration augmented exchange of ESR (ReceivedCopy retention through
// the recycle pool), ESRP's periodic storage stages, and IMCR's buddy
// checkpoints (payload buffers reused, superseded ones released). The whole
// table runs once per SpMV plan, each named after it: the Poisson system
// plans onto band, the banded system onto CSR, and the Emilia-like system
// ("auto") onto a per-block mix of the two (all pinned by
// TestSolveReportsKernels), so no layout can smuggle a per-iteration
// allocation into the product path.
func TestSolveIterationZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; gate runs in the non-race job")
	}
	strategies := []struct {
		name string
		mut  func(*Config)
	}{
		{"none", func(cfg *Config) {}},
		{"esr", func(cfg *Config) { cfg.Strategy = StrategyESR; cfg.Phi = 1 }},
		{"esrp-T10", func(cfg *Config) { cfg.Strategy = StrategyESRP; cfg.T = 10; cfg.Phi = 1 }},
		{"imcr-T10", func(cfg *Config) { cfg.Strategy = StrategyIMCR; cfg.T = 10; cfg.Phi = 1 }},
	}
	banded := localPathScenarios(t)["esrp-banded-fail"]
	inputs := []struct {
		layout string
		mut    func(*Config)
	}{
		{"auto", mixedPlanConfig},
		{"band", func(cfg *Config) {}},
		{"csr", func(cfg *Config) { cfg.A, cfg.B = banded.A, banded.B }},
	}
	for _, in := range inputs {
		for _, sub := range strategies {
			t.Run(in.layout+"/"+sub.name, func(t *testing.T) {
				mut := func(cfg *Config) {
					in.mut(cfg)
					sub.mut(cfg)
				}
				// A genuine leak shows up at ≥ 1 alloc per iteration (1.0) or per
				// checkpoint stage (≥ 0.1 at T=10); the threshold tolerates only
				// the ±1-per-solve constant of runtime internals (goroutine park
				// bookkeeping) that the fixed-length delta cannot fully cancel.
				if per := perIterationAllocs(t, Solve, mut); per > 0.02 {
					t.Fatalf("steady-state CG iteration allocates %.2f times (want 0)", per)
				}
			})
		}
	}
	// The pipelined solver on the Poisson input: its own loop body, the
	// shared checkpoint buffers of IMCR.
	for _, sub := range strategies {
		if sub.name != "none" && sub.name != "imcr-T10" {
			continue
		}
		t.Run("pipelined/"+sub.name, func(t *testing.T) {
			per := perIterationAllocs(t, SolvePipelined, sub.mut)
			t.Logf("%.3f allocs per iteration", per)
			if per > 0.02 {
				t.Fatalf("steady-state pipelined iteration allocates %.2f times (want 0)", per)
			}
		})
	}
}

// TestWorkspaceReuseKeepsTrajectory pins the campaign-style reuse path to
// the fresh-allocation path bit for bit: same Prepared + Workspace solves,
// including a failure/recovery cell, must reproduce the residual trajectory
// and iterand of an isolated solve exactly — a recycled buffer that leaks
// one stale value would show up here.
func TestWorkspaceReuseKeepsTrajectory(t *testing.T) {
	scenarios := localPathScenarios(t)
	ws := NewWorkspace()
	for _, name := range []string{"none-ff", "esr-fail", "esrp-fail", "imcr-fail", "esrp-nospare-fail"} {
		cfg, ok := scenarios[name]
		if !ok {
			t.Fatalf("missing scenario %s", name)
		}
		fresh, err := Solve(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prep, err := Prepare(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Two reused runs back to back: the second consumes buffers the
		// first left dirty.
		for pass := 0; pass < 2; pass++ {
			reused := cfg
			reused.Prepared = prep
			reused.Workspace = ws
			res, err := Solve(reused)
			if err != nil {
				t.Fatalf("%s pass %d: %v", name, pass, err)
			}
			if len(res.Residuals) != len(fresh.Residuals) {
				t.Fatalf("%s pass %d: residual log %d entries, fresh %d", name, pass, len(res.Residuals), len(fresh.Residuals))
			}
			for i := range res.Residuals {
				if res.Residuals[i] != fresh.Residuals[i] {
					t.Fatalf("%s pass %d: residual %d = %v, fresh %v (must be bitwise identical)",
						name, pass, i, res.Residuals[i], fresh.Residuals[i])
				}
			}
			for i := range res.X {
				if res.X[i] != fresh.X[i] {
					t.Fatalf("%s pass %d: x[%d] = %v, fresh %v", name, pass, i, res.X[i], fresh.X[i])
				}
			}
			if res.SimTime != fresh.SimTime || res.BytesSent != fresh.BytesSent {
				t.Fatalf("%s pass %d: clock/traffic (%v,%d) differ from fresh (%v,%d)",
					name, pass, res.SimTime, res.BytesSent, fresh.SimTime, fresh.BytesSent)
			}
		}
	}
}

// TestPreparedRejectsMismatch: silently reusing a context built for other
// settings would corrupt trajectories, so compatibility is validated.
func TestPreparedRejectsMismatch(t *testing.T) {
	cfg := baseConfig(t)
	prep, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.Strategy = StrategyESR // needs an augmented plan; prep's is plain
	bad.Phi = 1
	bad.Prepared = prep
	if _, err := Solve(bad); err == nil {
		t.Fatal("Solve accepted a Prepared context with mismatched augmentation")
	}
	bad2 := cfg
	bad2.Nodes = cfg.Nodes * 2
	bad2.Prepared = prep
	if _, err := Solve(bad2); err == nil {
		t.Fatal("Solve accepted a Prepared context for the wrong node count")
	}
}
