package harness

import (
	"fmt"
	"strings"

	"esrp/internal/sparse"
)

// RenderTable1 prints the test-matrix inventory in the layout of the paper's
// Table 1: name, problem type, size, and nonzero count.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1: Test matrices\n")
	fmt.Fprintf(&b, "%-24s %-14s %12s %14s %10s\n", "Matrix", "Problem type", "Problem size", "#NZ", "nnz/row")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-14s %12d %14d %10.1f\n",
			r.Name, r.ProblemType, r.Size, r.NNZ, float64(r.NNZ)/float64(r.Size))
	}
	return b.String()
}

// Table1Row is one matrix entry of Table 1.
type Table1Row struct {
	Name        string
	ProblemType string
	Size        int
	NNZ         int
}

// NewTable1Row describes a generated matrix.
func NewTable1Row(name, problemType string, a *sparse.CSR) Table1Row {
	return Table1Row{Name: name, ProblemType: problemType, Size: a.Rows, NNZ: a.NNZ()}
}

// RenderOverheadTable prints a report in the layout of the paper's Tables 2
// and 3: per strategy and checkpoint interval, the failure-free overhead for
// each φ, and per location the overall and reconstruction overheads for
// ψ = φ simultaneous failures. Overheads are percentages relative to the
// reference time t0.
func RenderOverheadTable(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Results for matrix %s. Reference time t0 = %.4g s (simulated). C = %d iterations.\n",
		r.Spec.Name, r.RefTime, r.RefIters)
	fmt.Fprintf(&b, "N = %d nodes. All overheads relative to t0, in %%.\n\n", r.Spec.Nodes)

	phis := r.Spec.Phis
	header := func() {
		fmt.Fprintf(&b, "%-9s %4s |", "Strategy", "T")
		for _, phi := range phis {
			fmt.Fprintf(&b, " ff φ=%-3d", phi)
		}
		fmt.Fprintf(&b, "| %-7s|", "Loc")
		for _, phi := range phis {
			fmt.Fprintf(&b, " ov ψ=%-3d", phi)
		}
		fmt.Fprintf(&b, "|")
		for _, phi := range phis {
			fmt.Fprintf(&b, " rc ψ=%-3d", phi)
		}
		fmt.Fprintf(&b, "\n")
	}
	header()

	renderGroup := func(label string, cells []Cell) {
		byT := groupByT(cells)
		for _, t := range sortedKeys(byT) {
			group := byT[t]
			name := label
			if label == "ESRP" && t == 1 {
				name = "ESR"
			}
			for li, loc := range r.Spec.Locations {
				if li == 0 {
					fmt.Fprintf(&b, "%-9s %4d |", name, t)
					for _, phi := range phis {
						if c := findPhi(group, phi); c != nil {
							fmt.Fprintf(&b, " %7.2f ", 100*c.FFOverhead)
						} else {
							fmt.Fprintf(&b, " %7s ", "-")
						}
					}
				} else {
					fmt.Fprintf(&b, "%-9s %4s |%s", "", "", strings.Repeat(" ", 9*len(phis)))
				}
				fmt.Fprintf(&b, "| %-7s|", loc)
				for _, phi := range phis {
					if f := findFail(group, phi, loc); f != nil {
						fmt.Fprintf(&b, " %7.2f ", 100*f.Overhead)
					} else {
						fmt.Fprintf(&b, " %7s ", "-")
					}
				}
				fmt.Fprintf(&b, "|")
				for _, phi := range phis {
					if f := findFail(group, phi, loc); f != nil {
						fmt.Fprintf(&b, " %7.2f ", 100*f.RecoveryOverhead)
					} else {
						fmt.Fprintf(&b, " %7s ", "-")
					}
				}
				fmt.Fprintf(&b, "\n")
			}
		}
	}
	renderGroup("ESRP", r.ESRP)
	fmt.Fprintln(&b)
	renderGroup("IMCR", r.IMCR)
	return b.String()
}

// RenderDriftTable prints the paper's Table 4: residual drift (Eq. 2) of the
// reference runs and the median/minimum drift over all ESRP failure runs.
func RenderDriftTable(reports []*Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: Residual drift (Eq. 2)\n")
	fmt.Fprintf(&b, "%-24s %14s %14s %14s\n", "Matrix", "Reference", "Median", "Minimum")
	for _, r := range reports {
		ref, med, min := r.DriftStats()
		fmt.Fprintf(&b, "%-24s %14.3e %14.3e %14.3e\n", r.Spec.Name, ref, med, min)
	}
	return b.String()
}

// RenderFigure prints the data series of the paper's Fig. 2 (Emilia-like) or
// Fig. 3 (audikw-like): for each checkpoint interval T > 1, the median
// runtime overhead over all locations for ESRP, ESR and IMCR, one marker per
// φ. failureFree selects subfigure (a); otherwise (b).
func RenderFigure(r *Report, failureFree bool) string {
	var b strings.Builder
	kind := "(b) Node failures introduced"
	if failureFree {
		kind = "(a) Failure-free solver"
	}
	fmt.Fprintf(&b, "Figure data for %s — %s\n", r.Spec.Name, kind)
	fmt.Fprintf(&b, "median runtime overhead [%%] per (strategy, T); markers φ = %v\n\n", r.Spec.Phis)
	fmt.Fprintf(&b, "%-10s", "T")
	for _, strat := range []string{"ESRP", "ESR", "IMCR"} {
		for _, phi := range r.Spec.Phis {
			fmt.Fprintf(&b, " %s(φ=%d)", strat, phi)
		}
	}
	fmt.Fprintf(&b, "\n")

	esrCells := cellsWithT(r.ESRP, 1)
	for _, t := range tsAbove1(r.Spec.Ts) {
		fmt.Fprintf(&b, "%-10d", t)
		for _, phi := range r.Spec.Phis {
			writePoint(&b, findPhi(cellsWithT(r.ESRP, t), phi), failureFree)
		}
		for _, phi := range r.Spec.Phis {
			writePoint(&b, findPhi(esrCells, phi), failureFree)
		}
		for _, phi := range r.Spec.Phis {
			writePoint(&b, findPhi(cellsWithT(r.IMCR, t), phi), failureFree)
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// writePoint emits one figure marker: the failure-free overhead, or the
// median overhead over all failure locations.
func writePoint(b *strings.Builder, c *Cell, failureFree bool) {
	if c == nil {
		fmt.Fprintf(b, " %9s", "-")
		return
	}
	v := c.FFOverhead
	if !failureFree {
		v = medianFailOverhead(c)
	}
	fmt.Fprintf(b, " %8.2f%%", 100*v)
}

func medianFailOverhead(c *Cell) float64 {
	if len(c.Fail) == 0 {
		return 0
	}
	vals := make([]float64, 0, len(c.Fail))
	for _, f := range c.Fail {
		vals = append(vals, f.Overhead)
	}
	sortFloats(vals)
	if n := len(vals); n%2 == 1 {
		return vals[n/2]
	} else {
		return (vals[n/2-1] + vals[n/2]) / 2
	}
}

// Summary prints a one-paragraph comparison of the report's headline shape
// results, for example binaries and logs.
func Summary(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: reference %d iterations, t0 = %.4g s (simulated)\n", r.Spec.Name, r.RefIters, r.RefTime)
	if r.Partition != nil {
		layout := "uniform"
		if r.Spec.BalanceNNZ {
			layout = "nnz-balanced"
		}
		fmt.Fprintf(&b, "  partition (%s, %d nodes): %s\n", layout, r.Spec.Nodes, r.Partition)
	}
	if r.RefMaxNodeBytes > 0 {
		fmt.Fprintf(&b, "  per-node memory ≤ %s (O(local+halo)); measured halo traffic %s per reference solve\n",
			fmtBytes(r.RefMaxNodeBytes), fmtBytes(r.RefHaloBytes))
	}
	if r.Kernels != "" {
		fmt.Fprintf(&b, "  spmv kernels: %s\n", r.Kernels)
	}
	if esr := findPhi(cellsWithT(r.ESRP, 1), r.Spec.Phis[0]); esr != nil {
		fmt.Fprintf(&b, "  ESR    (T=1,  φ=%d): failure-free overhead %6.2f%%\n", r.Spec.Phis[0], 100*esr.FFOverhead)
	}
	for _, t := range tsAbove1(r.Spec.Ts) {
		if c := findPhi(cellsWithT(r.ESRP, t), r.Spec.Phis[0]); c != nil {
			fmt.Fprintf(&b, "  ESRP   (T=%-3d φ=%d): failure-free overhead %6.2f%%, with failures %6.2f%%\n",
				t, c.Phi, 100*c.FFOverhead, 100*medianFailOverhead(c))
		}
		if c := findPhi(cellsWithT(r.IMCR, t), r.Spec.Phis[0]); c != nil {
			fmt.Fprintf(&b, "  IMCR   (T=%-3d φ=%d): failure-free overhead %6.2f%%, with failures %6.2f%%\n",
				t, c.Phi, 100*c.FFOverhead, 100*medianFailOverhead(c))
		}
	}
	if r.Scenario != nil {
		b.WriteString(RenderScenario(r.Scenario, r.Spec.Nodes))
	}
	return b.String()
}

// RenderScenario prints the multi-failure scenario run: the headline line
// plus one line per recovery event, so the whole failure process is visible
// in the report.
func RenderScenario(s *ScenarioCell, nodes int) string {
	var b strings.Builder
	status := "converged"
	if !s.Converged {
		status = "DID NOT CONVERGE"
	}
	pool := "unlimited spares"
	if s.Spares > 0 {
		pool = fmt.Sprintf("%d spares", s.Spares)
	}
	fmt.Fprintf(&b, "  scenario (%v T=%d φ=%d, %s): %d failure events, %s, overhead %6.2f%%, %d iterations wasted\n",
		s.Strategy, s.T, s.Phi, pool, len(s.Events), status, 100*s.Overhead, s.WastedIters)
	for i, ev := range s.Events {
		fmt.Fprintf(&b, "    event %d: %s\n", i, ev)
	}
	if s.ActiveNodes < nodes {
		fmt.Fprintf(&b, "    cluster shrank to %d of %d nodes\n", s.ActiveNodes, nodes)
	}
	return b.String()
}

// --- small helpers -----------------------------------------------------------

// fmtBytes renders a byte count with a binary-prefix unit for the summary.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func groupByT(cells []Cell) map[int][]Cell {
	m := make(map[int][]Cell)
	for _, c := range cells {
		m[c.T] = append(m[c.T], c)
	}
	return m
}

func sortedKeys(m map[int][]Cell) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sortInts(keys)
	return keys
}

func cellsWithT(cells []Cell, t int) []Cell {
	var out []Cell
	for _, c := range cells {
		if c.T == t {
			out = append(out, c)
		}
	}
	return out
}

func findPhi(cells []Cell, phi int) *Cell {
	for i := range cells {
		if cells[i].Phi == phi {
			return &cells[i]
		}
	}
	return nil
}

func findFail(cells []Cell, phi int, loc Location) *FailureCell {
	c := findPhi(cells, phi)
	if c == nil {
		return nil
	}
	for i := range c.Fail {
		if c.Fail[i].Location == loc {
			return &c.Fail[i]
		}
	}
	return nil
}

func tsAbove1(ts []int) []int {
	var out []int
	for _, t := range ts {
		if t > 1 {
			out = append(out, t)
		}
	}
	return out
}

func sortInts(x []int) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}

func sortFloats(x []float64) {
	for i := 1; i < len(x); i++ {
		for j := i; j > 0 && x[j] < x[j-1]; j-- {
			x[j], x[j-1] = x[j-1], x[j]
		}
	}
}
