package harness

import (
	"strings"
	"testing"

	"esrp/internal/core"
	"esrp/internal/matgen"
)

// smallSpec builds a fast constellation: a 2-D Poisson matrix on 8 nodes
// with a reduced sweep, converging in a few hundred iterations.
func smallSpec() Spec {
	return Spec{
		Name:   "poisson2d-24x24",
		Matrix: matgen.Poisson2D(24, 24),
		Nodes:  8,
		Ts:     []int{1, 10, 25},
		Phis:   []int{1, 2},
		Rtol:   1e-8,
	}
}

func TestRunSmallConstellation(t *testing.T) {
	rep, err := Run(smallSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if rep.RefIters <= 0 {
		t.Fatalf("reference iterations = %d, want > 0", rep.RefIters)
	}
	if rep.RefTime <= 0 {
		t.Fatalf("reference time = %g, want > 0", rep.RefTime)
	}
	if rep.RefMaxNodeBytes <= 0 || rep.RefHaloBytes <= 0 {
		t.Fatalf("footprint figures missing: per-node %d B, halo %d B", rep.RefMaxNodeBytes, rep.RefHaloBytes)
	}
	if full := int64(8 * rep.Spec.Matrix.Rows); rep.RefMaxNodeBytes >= full {
		t.Errorf("per-node memory %d B reaches a full-length vector (%d B); the data path must stay O(local+halo)",
			rep.RefMaxNodeBytes, full)
	}
	// 3 intervals × 2 φ for ESRP; IMCR skips T = 1.
	if got, want := len(rep.ESRP), 6; got != want {
		t.Errorf("len(ESRP) = %d, want %d", got, want)
	}
	if got, want := len(rep.IMCR), 4; got != want {
		t.Errorf("len(IMCR) = %d, want %d", got, want)
	}
	for _, c := range rep.ESRP {
		if c.FFIters != rep.RefIters {
			t.Errorf("ESRP T=%d φ=%d failure-free iterations %d differ from reference %d (redundancy must not change the trajectory)",
				c.T, c.Phi, c.FFIters, rep.RefIters)
		}
		if len(c.Fail) != 2 {
			t.Fatalf("ESRP T=%d φ=%d: %d failure cells, want 2", c.T, c.Phi, len(c.Fail))
		}
		for _, f := range c.Fail {
			if !f.Converged {
				t.Errorf("ESRP T=%d φ=%d %v: failure run did not converge", c.T, c.Phi, f.Location)
			}
			if f.Overhead < 0 {
				t.Errorf("ESRP T=%d φ=%d %v: negative overhead %g", c.T, c.Phi, f.Location, f.Overhead)
			}
		}
	}
}

func TestESRPStrategySelection(t *testing.T) {
	if got := esrpConfig(1); got != core.StrategyESR {
		t.Errorf("esrpConfig(1) = %v, want ESR", got)
	}
	if got := esrpConfig(2); got != core.StrategyESR {
		t.Errorf("esrpConfig(2) = %v, want ESR", got)
	}
	if got := esrpConfig(20); got != core.StrategyESRP {
		t.Errorf("esrpConfig(20) = %v, want ESRP", got)
	}
}

func TestFailureIteration(t *testing.T) {
	cases := []struct {
		c, t, want int
	}{
		{1000, 1, 500},    // ESR: failure at C/2
		{1000, 20, 518},   // interval [500,520): inject at 520-2
		{1000, 100, 598},  // interval [500,600): inject at 600-2
		{10279, 20, 5138}, // C/2 = 5139 lies in [5120, 5140): inject at 5138
		{10, 50, 48},      // interval [0,50): inject at 48 even past convergence
		{0, 1, 0},
	}
	for _, tc := range cases {
		if got := FailureIteration(tc.c, tc.t); got != tc.want {
			t.Errorf("FailureIteration(%d, %d) = %d, want %d", tc.c, tc.t, got, tc.want)
		}
	}
}

func TestFailureIterationInsideHalfInterval(t *testing.T) {
	// The injection point must lie in the interval containing C/2 and be
	// exactly two before its end, for a range of C and T.
	for _, c := range []int{100, 500, 1234, 10279} {
		for _, tt := range []int{5, 20, 50, 100} {
			j := FailureIteration(c, tt)
			k := (c / 2) / tt
			if j < k*tt || j >= (k+1)*tt {
				t.Errorf("C=%d T=%d: injection %d outside interval [%d,%d)", c, tt, j, k*tt, (k+1)*tt)
			}
			if (k+1)*tt-j != 2 {
				t.Errorf("C=%d T=%d: injection %d is %d before interval end, want 2", c, tt, j, (k+1)*tt-j)
			}
		}
	}
}

func TestLocationRanks(t *testing.T) {
	if got := LocStart.Ranks(3, 16); got[0] != 0 || got[2] != 2 {
		t.Errorf("Start ranks = %v, want [0 1 2]", got)
	}
	if got := LocCenter.Ranks(2, 16); got[0] != 8 || got[1] != 9 {
		t.Errorf("Center ranks = %v, want [8 9]", got)
	}
	if LocStart.String() != "Start" || LocCenter.String() != "Center" {
		t.Errorf("location labels wrong: %v %v", LocStart, LocCenter)
	}
}

func TestRenderersProduceTables(t *testing.T) {
	rep, err := Run(smallSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	tbl := RenderOverheadTable(rep)
	for _, want := range []string{"ESRP", "ESR", "IMCR", "Start", "Center", "Reference time"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("overhead table missing %q:\n%s", want, tbl)
		}
	}
	drift := RenderDriftTable([]*Report{rep})
	if !strings.Contains(drift, rep.Spec.Name) || !strings.Contains(drift, "Median") {
		t.Errorf("drift table malformed:\n%s", drift)
	}
	figA := RenderFigure(rep, true)
	figB := RenderFigure(rep, false)
	if !strings.Contains(figA, "Failure-free") || !strings.Contains(figB, "failures introduced") {
		t.Errorf("figure renderers malformed:\n%s\n%s", figA, figB)
	}
	sum := Summary(rep)
	if !strings.Contains(sum, "ESRP") {
		t.Errorf("summary missing ESRP:\n%s", sum)
	}
}

func TestRenderTable1(t *testing.T) {
	a := matgen.Poisson2D(10, 10)
	out := RenderTable1([]Table1Row{NewTable1Row("poisson", "Test", a)})
	if !strings.Contains(out, "poisson") || !strings.Contains(out, "100") {
		t.Errorf("table 1 malformed:\n%s", out)
	}
}

func TestDriftStats(t *testing.T) {
	rep := &Report{RefDrift: -0.01}
	ref, med, min := rep.DriftStats()
	if ref != -0.01 || med != -0.01 || min != -0.01 {
		t.Errorf("empty drift stats = %g %g %g, want all -0.01", ref, med, min)
	}
	rep.ESRP = []Cell{
		{Fail: []FailureCell{{Drift: -0.03}, {Drift: -0.01}}},
		{Fail: []FailureCell{{Drift: -0.02}}},
	}
	_, med, min = rep.DriftStats()
	if min != -0.03 {
		t.Errorf("min drift = %g, want -0.03", min)
	}
	if med != -0.02 {
		t.Errorf("median drift = %g, want -0.02", med)
	}
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(Spec{}); err == nil {
		t.Error("Run with no matrix should fail")
	}
}

// TestPaperFailureFreeOrdering pins the paper's failure-free conclusions on
// the simulated clock: ESRP's overhead falls as the checkpoint interval T
// grows, ESRP at T = 20 is already below plain ESR (T = 1) at φ = 3,
// and ESRP never costs more than IMCR at the same (T, φ).
func TestPaperFailureFreeOrdering(t *testing.T) {
	for _, m := range []struct {
		name string
		spec Spec
	}{
		{"Emilia-like", Spec{Matrix: matgen.EmiliaLike(12, 12, 12, 923)}},
		{"audikw-like", Spec{Matrix: matgen.AudikwLike(8, 8, 8, 3, 944)}},
	} {
		t.Run(m.name, func(t *testing.T) {
			spec := m.spec
			spec.Name = m.name
			spec.Nodes = 8
			spec.Ts = []int{1, 20, 50, 100}
			spec.Phis = []int{1, 3}
			rep, err := Run(spec)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			esrp := make(map[[2]int]float64)
			for _, c := range rep.ESRP {
				esrp[[2]int{c.T, c.Phi}] = c.FFOverhead
			}
			for _, phi := range spec.Phis {
				for i := 1; i < len(spec.Ts); i++ {
					prev, cur := spec.Ts[i-1], spec.Ts[i]
					if a, b := esrp[[2]int{prev, phi}], esrp[[2]int{cur, phi}]; b > a {
						t.Errorf("φ=%d: ESRP overhead rises from %.4g at T=%d to %.4g at T=%d", phi, a, prev, b, cur)
					}
				}
			}
			if esr, t20 := esrp[[2]int{1, 3}], esrp[[2]int{20, 3}]; esr <= t20 {
				t.Errorf("φ=3: ESR overhead %.4g is not above ESRP T=20 overhead %.4g", esr, t20)
			}
			if len(rep.IMCR) != 3*len(spec.Phis) {
				t.Fatalf("len(IMCR) = %d, want %d", len(rep.IMCR), 3*len(spec.Phis))
			}
			for _, c := range rep.IMCR {
				if e := esrp[[2]int{c.T, c.Phi}]; e > c.FFOverhead {
					t.Errorf("T=%d φ=%d: ESRP overhead %.4g exceeds IMCR overhead %.4g", c.T, c.Phi, e, c.FFOverhead)
				}
			}
		})
	}
}

func TestRenderFigureASCII(t *testing.T) {
	rep, err := Run(smallSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, ff := range []bool{true, false} {
		out := RenderFigureASCII(rep, ff)
		if !strings.Contains(out, "T=10") || !strings.Contains(out, "T=25") {
			t.Errorf("ASCII figure missing T clusters:\n%s", out)
		}
		if !strings.Contains(out, "%") || !strings.Contains(out, "1") {
			t.Errorf("ASCII figure missing axis or markers:\n%s", out)
		}
	}
	empty := RenderFigureASCII(&Report{Spec: Spec{Ts: []int{1}}}, true)
	if !strings.Contains(empty, "no intervals") {
		t.Errorf("degenerate figure: %q", empty)
	}
}

func TestRunReportsPartitionQuality(t *testing.T) {
	spec := smallSpec()
	spec.Ts = []int{1}
	spec.Phis = []int{1}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partition == nil {
		t.Fatal("report lacks partition diagnostics")
	}
	// Poisson2D is structurally uniform: the uniform split is near-perfect.
	if rep.Partition.Imbalance < 1 || rep.Partition.Imbalance > 1.1 {
		t.Fatalf("uniform Poisson partition imbalance %g", rep.Partition.Imbalance)
	}
	if rep.Partition.GhostTotal <= 0 {
		t.Fatalf("ghost volume %d, want > 0 on a distributed stencil", rep.Partition.GhostTotal)
	}
	if s := Summary(rep); !strings.Contains(s, "partition (uniform") {
		t.Fatalf("Summary lacks the partition line:\n%s", s)
	}
}

func TestRunBalancedSpec(t *testing.T) {
	spec := smallSpec()
	spec.Ts = []int{10}
	spec.Phis = []int{1}
	spec.BalanceNNZ = true
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partition == nil {
		t.Fatal("report lacks partition diagnostics")
	}
	if s := Summary(rep); !strings.Contains(s, "partition (nnz-balanced") {
		t.Fatalf("Summary lacks the balanced partition line:\n%s", s)
	}
	// The reported quality must describe the partition the solver ran on,
	// not a re-derivation with different weights.
	part, err := core.PartitionFor(rep.Spec.config(core.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	q, err := part.Analyze(rep.Spec.Matrix)
	if err != nil {
		t.Fatal(err)
	}
	if q.MaxLoad != rep.Partition.MaxLoad || q.GhostTotal != rep.Partition.GhostTotal {
		t.Fatalf("report quality %v differs from the solver's partition %v", rep.Partition, q)
	}
	for _, c := range rep.ESRP {
		for _, f := range c.Fail {
			if !f.Converged {
				t.Fatalf("balanced ESRP T=%d φ=%d %v did not converge", c.T, c.Phi, f.Location)
			}
		}
	}
}

// A multi-failure timeline on a spare pool that exhausts mid-run: the
// scenario cell records every recovery and the summary renders them.
func TestScenarioTimelineInReport(t *testing.T) {
	spec := Spec{
		Name:   "poisson2d-32x32",
		Matrix: matgen.Poisson2D(32, 32),
		Nodes:  8,
		Ts:     []int{1}, // scenario runs plain ESR
		Phis:   []int{1},
		Spares: 1,
		Timeline: []core.FailureSpec{
			{Iteration: 15, Ranks: []int{2}},
			{Iteration: 35, Ranks: []int{5}},
			{Iteration: 55, Ranks: []int{1}},
		},
	}
	rep, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	sc := rep.Scenario
	if sc == nil {
		t.Fatal("timeline configured but Report.Scenario is nil")
	}
	if !sc.Converged {
		t.Fatal("scenario run did not converge")
	}
	if len(sc.Events) != 3 {
		t.Fatalf("scenario recorded %d events, want 3", len(sc.Events))
	}
	if sc.Events[0].Mode != core.RecoverySpare {
		t.Errorf("event 0 mode %q, want spare (pool of 1)", sc.Events[0].Mode)
	}
	for _, ev := range sc.Events[1:] {
		if ev.Mode != core.RecoveryShrink {
			t.Errorf("post-exhaustion event mode %q, want shrink", ev.Mode)
		}
	}
	if sc.ActiveNodes != 6 {
		t.Errorf("scenario finished on %d nodes, want 6", sc.ActiveNodes)
	}
	if sc.Overhead <= 0 {
		t.Errorf("scenario overhead %g, want > 0 (three recoveries cost time)", sc.Overhead)
	}

	sum := Summary(rep)
	if !strings.Contains(sum, "scenario") || !strings.Contains(sum, "shrink recovery") {
		t.Fatalf("summary does not render the scenario events:\n%s", sum)
	}
	if !strings.Contains(sum, "cluster shrank to 6 of 8 nodes") {
		t.Fatalf("summary does not render the shrink:\n%s", sum)
	}
}

// Without a timeline the scenario cell stays nil and the summary is
// unchanged.
func TestNoTimelineNoScenario(t *testing.T) {
	spec := smallSpec()
	spec.Ts = []int{1}
	spec.Phis = []int{1}
	rep, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scenario != nil {
		t.Fatal("no timeline configured but Report.Scenario is set")
	}
	if strings.Contains(Summary(rep), "scenario") {
		t.Fatal("summary mentions a scenario without one configured")
	}
}
