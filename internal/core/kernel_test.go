package core

import (
	"strings"
	"testing"

	"esrp/internal/matgen"
)

// mixedPlanConfig swaps the test problem for an Emilia-like system whose
// local matrices the planner splits across layouts: one node's boundary
// block goes to band while every other block stays on CSR.
func mixedPlanConfig(cfg *Config) {
	cfg.A = matgen.EmiliaLike(10, 10, 10, 3)
	cfg.B, _ = matgen.RHSForSolution(cfg.A, 12)
}

// TestSolveReportsKernels: Result.Kernels carries one layout name per node,
// the Poisson test problem's slabs plan onto the band layout, the banded
// scenario's irregular rows plan onto scalar CSR on every node, and the
// Emilia-like system gets a mixed plan.
func TestSolveReportsKernels(t *testing.T) {
	cfg := baseConfig(t)
	res := solveOK(t, cfg)
	if len(res.Kernels) != cfg.Nodes {
		t.Fatalf("Result.Kernels has %d entries, want %d", len(res.Kernels), cfg.Nodes)
	}
	condensed := CondenseKernels(res.Kernels)
	if !strings.Contains(condensed, "band") {
		t.Fatalf("planner chose %q for the Poisson slabs, expected band blocks", condensed)
	}
	banded := solveOK(t, localPathScenarios(t)["esrp-banded-fail"])
	if c := CondenseKernels(banded.Kernels); c != "csr×8" {
		t.Fatalf("planner chose %q for the banded system, want csr×8", c)
	}
	mixed := baseConfig(t)
	mixedPlanConfig(&mixed)
	if c := CondenseKernels(solveOK(t, mixed).Kernels); !strings.Contains(c, "band") || !strings.Contains(c, "csr") {
		t.Fatalf("planner chose %q for the Emilia-like system, want both band and csr blocks", c)
	}
}
