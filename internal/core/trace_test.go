package core

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"esrp/internal/matgen"
	"esrp/internal/obs"
)

// TestTraceNilWhenDisabled pins the disabled contract: without Observe the
// result carries no trace and the recorder machinery stays off the path.
func TestTraceNilWhenDisabled(t *testing.T) {
	res := solveOK(t, baseConfig(t))
	if res.Trace != nil {
		t.Fatal("Result.Trace must be nil without Config.Observe")
	}
	cfg := baseConfig(t)
	cfg.Observe = &obs.Options{} // present but all-off: still disabled
	if res := solveOK(t, cfg); res.Trace != nil {
		t.Fatal("Result.Trace must be nil for zero Observe options")
	}
}

// TestTraceDoesNotPerturbSolve is the observer-effect gate: turning the
// recorder on must not change one bit of the trajectory or the modeled
// runtime, for the standard and the pipelined solver, with and without
// failures.
func TestTraceDoesNotPerturbSolve(t *testing.T) {
	run := func(name string, mut func(*Config), solver func(Config) (*Result, error)) {
		t.Helper()
		plain := baseConfig(t)
		mut(&plain)
		traced := plain
		traced.Observe = &obs.Options{Trace: true, Series: true}
		a, err := solver(plain)
		if err != nil {
			t.Fatalf("%s plain: %v", name, err)
		}
		b, err := solver(traced)
		if err != nil {
			t.Fatalf("%s traced: %v", name, err)
		}
		if b.Trace == nil {
			t.Fatalf("%s: traced run returned no trace", name)
		}
		if a.SimTime != b.SimTime {
			t.Errorf("%s: SimTime %v != %v with tracing on", name, a.SimTime, b.SimTime)
		}
		if a.Iterations != b.Iterations || a.RelResidual != b.RelResidual {
			t.Errorf("%s: trajectory changed with tracing on", name)
		}
		if !reflect.DeepEqual(a.X, b.X) {
			t.Errorf("%s: iterand changed with tracing on", name)
		}
		if a.BytesSent != b.BytesSent || a.MsgsSent != b.MsgsSent {
			t.Errorf("%s: traffic changed with tracing on", name)
		}
		if !reflect.DeepEqual(a.Events, b.Events) {
			t.Errorf("%s: recovery events changed with tracing on", name)
		}
	}

	run("esrp-failure", func(cfg *Config) {
		cfg.Strategy = StrategyESRP
		cfg.T = 20
		cfg.Phi = 1
		cfg.Failure = &FailureSpec{Iteration: 50, Ranks: []int{3}}
	}, Solve)
	run("imcr-failure", func(cfg *Config) {
		cfg.Strategy = StrategyIMCR
		cfg.T = 20
		cfg.Phi = 1
		cfg.Failure = &FailureSpec{Iteration: 50, Ranks: []int{3}}
	}, Solve)
	run("none", func(cfg *Config) { cfg.Strategy = StrategyNone }, Solve)
	run("pipelined-imcr", func(cfg *Config) {
		cfg.Strategy = StrategyIMCR
		cfg.T = 20
		cfg.Phi = 1
		cfg.Failure = &FailureSpec{Iteration: 50, Ranks: []int{3}}
	}, SolvePipelined)
}

// TestTraceByteDeterminism pins the export contract: the same configuration
// always yields byte-identical Chrome trace JSON.
func TestTraceByteDeterminism(t *testing.T) {
	render := func() []byte {
		cfg := baseConfig(t)
		cfg.Strategy = StrategyESRP
		cfg.T = 20
		cfg.Phi = 1
		cfg.Failures = []FailureSpec{{Iteration: 30, Ranks: []int{2}}, {Iteration: 60, Ranks: []int{5}}}
		cfg.Observe = &obs.Options{Trace: true, Series: true}
		res := solveOK(t, cfg)
		var buf bytes.Buffer
		if err := res.Trace.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := render(), render()
	if !bytes.Equal(a, b) {
		t.Fatal("trace JSON differs between identical runs")
	}
	if err := obs.ValidateChromeTrace(a); err != nil {
		t.Fatalf("emitted trace fails schema validation: %v", err)
	}
}

// TestTraceCoverage checks the taxonomy's completeness: on a failure run the
// leaf spans of the critical rank must account for ≥95% of the modeled
// runtime — nothing substantial happens on the simulated clock without a
// span saying what it was.
func TestTraceCoverage(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		run  func(Config) (*Result, error)
	}{
		{"esrp", func(cfg *Config) {
			cfg.Strategy = StrategyESRP
			cfg.T = 20
			cfg.Phi = 1
			cfg.Failure = &FailureSpec{Iteration: 50, Ranks: []int{3}}
			cfg.DetectionTime = 1e-4
		}, Solve},
		{"imcr", func(cfg *Config) {
			cfg.Strategy = StrategyIMCR
			cfg.T = 20
			cfg.Phi = 1
			cfg.Failure = &FailureSpec{Iteration: 50, Ranks: []int{3}}
		}, Solve},
		{"esr-nospare", func(cfg *Config) {
			cfg.Strategy = StrategyESR
			cfg.Phi = 2
			cfg.NoSpareNodes = true
			cfg.Failure = &FailureSpec{Iteration: 40, Ranks: []int{3, 4}}
		}, Solve},
		{"pipelined-imcr", func(cfg *Config) {
			cfg.Strategy = StrategyIMCR
			cfg.T = 20
			cfg.Phi = 1
			cfg.Failure = &FailureSpec{Iteration: 50, Ranks: []int{3}}
		}, SolvePipelined},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := baseConfig(t)
			tc.mut(&cfg)
			cfg.Observe = &obs.Options{Trace: true}
			res, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil {
				t.Fatal("no trace recorded")
			}
			rank, frac := res.Trace.Coverage()
			if frac < 0.95 {
				tot := res.Trace.Totals()
				t.Errorf("leaf spans cover %.1f%% of rank %d's timeline, want ≥95%% (totals %v, simtime %v)",
					100*frac, rank, tot, res.Trace.SimTime)
			}
			if frac > 1+1e-9 {
				t.Errorf("coverage %.4f > 1: leaf spans overlap", frac)
			}
		})
	}
}

// TestTraceRecoveryStats checks the per-event envelopes: one stat per
// injected failure, at the right iterations, with positive modeled cost.
func TestTraceRecoveryStats(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESRP
	cfg.T = 20
	cfg.Phi = 1
	cfg.Failures = []FailureSpec{{Iteration: 30, Ranks: []int{2}}, {Iteration: 60, Ranks: []int{5}}}
	cfg.Observe = &obs.Options{Trace: true}
	res := solveOK(t, cfg)
	stats := res.Trace.RecoveryStats()
	if len(stats) != len(res.Events) {
		t.Fatalf("got %d recovery stats, want %d (one per handled event)", len(stats), len(res.Events))
	}
	for i, st := range stats {
		if st.Iter != res.Events[i].Iteration {
			t.Errorf("stat %d at iter %d, event at %d", i, st.Iter, res.Events[i].Iteration)
		}
		if st.Time <= 0 {
			t.Errorf("stat %d has non-positive recovery time %v", i, st.Time)
		}
		if st.Ranks == 0 {
			t.Errorf("stat %d recorded no ranks", i)
		}
	}
}

// TestTraceSeries checks the iteration series: monotone steps, cumulative
// counters, wasted-work attribution consistent with the rollback, and the
// final relres matching the result.
func TestTraceSeries(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESRP
	cfg.T = 20
	cfg.Phi = 1
	cfg.Failure = &FailureSpec{Iteration: 50, Ranks: []int{3}}
	cfg.Observe = &obs.Options{Series: true}
	res := solveOK(t, cfg)
	pts := res.Trace.Series
	if len(pts) == 0 {
		t.Fatal("no series points recorded")
	}
	wasted := 0
	for i, p := range pts {
		// Steps increase strictly; the step interrupted by the failure itself
		// never reaches its sampling point, so gaps are legal.
		if i > 0 && p.Step <= pts[i-1].Step {
			t.Fatalf("point %d has step %d after step %d", i, p.Step, pts[i-1].Step)
		}
		if i > 0 && (p.Clock < pts[i-1].Clock || p.Bytes < pts[i-1].Bytes || p.Msgs < pts[i-1].Msgs) {
			t.Fatalf("cumulative counters regressed at step %d", i)
		}
		if p.Wasted {
			wasted++
		}
	}
	if wasted != res.WastedIters {
		t.Errorf("series marks %d wasted steps, result reports %d", wasted, res.WastedIters)
	}
	last := pts[len(pts)-1]
	if math.Abs(last.RelRes-res.RelResidual)/res.RelResidual > 1e-12 {
		t.Errorf("final series relres %g != result relres %g", last.RelRes, res.RelResidual)
	}
}

// TestTraceSurvivesShrink checks that the no-spare path records into the
// same buffers after the cluster shrinks (the tracer rides the shared node
// state across Sub views).
func TestTraceSurvivesShrink(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Strategy = StrategyESR
	cfg.Phi = 2
	cfg.NoSpareNodes = true
	cfg.Failure = &FailureSpec{Iteration: 40, Ranks: []int{3, 4}}
	cfg.Observe = &obs.Options{Trace: true}
	res := solveOK(t, cfg)
	if res.ActiveNodes >= cfg.Nodes {
		t.Fatal("scenario did not shrink the cluster")
	}
	// The failed ranks retire at the failure; survivors keep recording to
	// the end of the solve.
	failedLast := res.Trace.Ranks[3][len(res.Trace.Ranks[3])-1].End
	survivorLast := res.Trace.Ranks[0][len(res.Trace.Ranks[0])-1].End
	if survivorLast <= failedLast {
		t.Errorf("survivor timeline ends at %v, not past the failed rank's %v", survivorLast, failedLast)
	}
}

// -update-trace regenerates the reference trace files in testdata. Run it
// only when a change is meant to alter what a solve records.
var updateTrace = flag.Bool("update-trace", false, "regenerate the reference solve traces")

// TestTraceReferenceBytes pins the Chrome trace and series JSON of one
// standard and one pipelined IMCR failure solve, detection charge included,
// byte for byte: recovery envelopes, phases, detection spans and checkpoint
// spans must come out of any restructuring of the solvers unchanged.
func TestTraceReferenceBytes(t *testing.T) {
	cases := []struct {
		name  string
		solve func(Config) (*Result, error)
	}{
		{"imcr", Solve},
		{"pipelined_imcr", SolvePipelined},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := matgen.Poisson2D(8, 8)
			b, _ := matgen.RHSForSolution(a, 12)
			cfg := Config{
				A: a, B: b, Nodes: 3, Rtol: 1e-8, CostModel: fastModel(),
				Strategy: StrategyIMCR, T: 4, Phi: 1, DetectionTime: 2e-5,
				Failure: &FailureSpec{Iteration: 9, Ranks: []int{1}},
				Observe: &obs.Options{Trace: true, Series: true},
			}
			res, err := tc.solve(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Events) != 1 || res.Events[0].Mode != RecoverySpare {
				t.Fatalf("scenario must roll back from a checkpoint, events %+v", res.Events)
			}
			// The header's toolchain stamp varies across Go patch releases.
			res.Trace.Build = obs.BuildInfo{GoVersion: "go1.0"}
			for _, out := range []struct {
				suffix string
				write  func(*bytes.Buffer) error
			}{
				{"trace.json", func(w *bytes.Buffer) error { return res.Trace.WriteChrome(w) }},
				{"series.json", func(w *bytes.Buffer) error { return res.Trace.WriteSeriesJSON(w) }},
			} {
				var buf bytes.Buffer
				if err := out.write(&buf); err != nil {
					t.Fatal(err)
				}
				path := filepath.Join("testdata", tc.name+"_"+out.suffix)
				if *updateTrace {
					if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("missing reference (run with -update-trace to create): %v", err)
				}
				if !bytes.Equal(buf.Bytes(), want) {
					t.Errorf("%s: emitted bytes differ from the reference", path)
				}
			}
		})
	}
}
