package sparse

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// localOf extracts the Local view of rows [lo,hi) of a, deriving the ghost
// set from the rows' out-of-range references (what aspmv.Plan.Ghost would
// deliver).
func localOf(t testing.TB, a *CSR, lo, hi int) *Local {
	t.Helper()
	seen := map[int]bool{}
	for i := lo; i < hi; i++ {
		cols, _ := a.Row(i)
		for _, j := range cols {
			if j < lo || j >= hi {
				seen[j] = true
			}
		}
	}
	ghost := make([]int, 0, len(seen))
	for j := range seen {
		ghost = append(ghost, j)
	}
	sort.Ints(ghost)
	l, err := NewLocal(a, lo, hi, ghost)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// stencil27 builds a scalar 27-point stencil matrix on an n³ grid — the
// Emilia/audikw sparsity-pattern class the band kernel targets.
func stencil27(n int) *CSR {
	idx := func(i, j, k int) int { return (i*n+j)*n + k }
	b := NewBuilder(n*n*n, n*n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				r := idx(i, j, k)
				diag := 1.0
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							ii, jj, kk := i+di, j+dj, k+dk
							if ii < 0 || ii >= n || jj < 0 || jj >= n || kk < 0 || kk >= n {
								continue
							}
							w := 1 / float64(di*di+dj*dj+dk*dk)
							b.Add(r, idx(ii, jj, kk), -w)
							diag += w
						}
					}
				}
				b.Add(r, r, diag)
			}
		}
	}
	return b.Build()
}

// raggedSparse builds a deliberately irregular matrix: random row lengths,
// empty rows, and rows whose only entries are far off-diagonal.
func raggedSparse(n int, seed int64) *CSR {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // empty row
		case 1: // diagonal only
			b.Add(i, i, 1+rng.Float64())
		default:
			for k, kn := 0, 1+rng.Intn(7); k < kn; k++ {
				b.Add(i, rng.Intn(n), rng.NormFloat64())
			}
		}
	}
	return b.Build()
}

// mmSample is a tiny Matrix Market general matrix with ragged rows.
const mmSample = `%%MatrixMarket matrix coordinate real general
6 6 9
1 1 2.5
1 4 -1.0
2 2 3.0
3 1 -0.5
3 3 1.5
3 6 0.25
5 5 4.0
6 2 -0.75
6 6 2.0
`

// kernelMatrices enumerates the property-test inputs: stencil, random,
// ragged (empty rows included), and Matrix-Market-parsed.
func kernelMatrices(t testing.TB) map[string]*CSR {
	t.Helper()
	mm, err := ReadMatrixMarket(strings.NewReader(mmSample))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*CSR{
		"stencil27-6":  stencil27(6),
		"random-80":    randomSparse(80, 6, 7),
		"ragged-97":    raggedSparse(97, 3),
		"matrixmarket": mm,
	}
}

// TestKernelsBitwiseIdentical is the kernel-format property test: for every
// matrix class, every row split (including the single-node g=0 halo case),
// and every kernel kind, Mul/MulInterior/MulBoundary must reproduce the
// scalar CSR traversal bit for bit — the invariant that keeps solver
// trajectories independent of the storage layout.
func TestKernelsBitwiseIdentical(t *testing.T) {
	kinds := []KernelKind{KernelAuto, KernelCSR, KernelBand}
	for name, a := range kernelMatrices(t) {
		splits := [][2]int{{0, a.Rows}} // single node: no ghosts at all
		third := a.Rows / 3
		if third > 0 {
			splits = append(splits, [2]int{0, third}, [2]int{third, 2 * third}, [2]int{2 * third, a.Rows})
		}
		for _, sp := range splits {
			l := localOf(t, a, sp[0], sp[1])
			rng := rand.New(rand.NewSource(int64(sp[0]) + 99))
			x := make([]float64, l.M+l.G())
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			// Sprinkle in signed zeros: padding or reordering bugs show up
			// exactly where -0.0 partial sums get normalized to +0.0.
			if len(x) > 2 {
				x[0], x[len(x)/2] = math.Copysign(0, -1), math.Copysign(0, -1)
			}
			want := make([]float64, l.M)
			l.Mul(want, x)
			wantI := make([]float64, l.M)
			wantB := make([]float64, l.M)
			l.MulInterior(wantI, x)
			l.MulBoundary(wantB, x)
			for _, kind := range kinds {
				k := BuildKernel(l, kind)
				t.Run(fmt.Sprintf("%s/rows%d-%d/%v", name, sp[0], sp[1], kind), func(t *testing.T) {
					checkBits := func(op string, got, want []float64) {
						t.Helper()
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
								t.Fatalf("%s (%s): row %d = %x, csr %x", op, k.Name(), i,
									math.Float64bits(got[i]), math.Float64bits(want[i]))
							}
						}
					}
					got := make([]float64, l.M)
					k.Mul(got, x)
					checkBits("Mul", got, want)
					gotI := make([]float64, l.M)
					k.MulInterior(gotI, x)
					checkBits("MulInterior", gotI, wantI)
					gotB := make([]float64, l.M)
					k.MulBoundary(gotB, x)
					checkBits("MulBoundary", gotB, wantB)
					if k.NNZ() != l.NNZ() || k.InteriorNNZ() != l.InteriorNNZ() || k.BoundaryNNZ() != l.BoundaryNNZ() {
						t.Fatalf("nnz accounting (%d,%d,%d) != local (%d,%d,%d)",
							k.NNZ(), k.InteriorNNZ(), k.BoundaryNNZ(), l.NNZ(), l.InteriorNNZ(), l.BoundaryNNZ())
					}
				})
			}
		}
	}
}

// TestKernelPlannerPicksBandForStencil pins the planner's headline decision:
// a stencil slab's interior rows go to the band layout, and the forced kinds
// report their own names.
func TestKernelPlannerPicksBandForStencil(t *testing.T) {
	a := stencil27(8)
	l := localOf(t, a, 128, 384) // an interior slab with halo on both sides
	if name := BuildKernel(l, KernelAuto).Name(); !strings.Contains(name, "band") {
		t.Fatalf("planner chose %q for a 27-point stencil slab, want a band interior", name)
	}
	if name := BuildKernel(l, KernelCSR).Name(); name != "csr" {
		t.Fatalf("forced csr reports %q", name)
	}
	if name := BuildKernel(l, KernelBand).Name(); name != "band" {
		t.Fatalf("forced band reports %q", name)
	}
	irregular := raggedSparse(97, 3)
	li := localOf(t, irregular, 0, 97)
	if name := BuildKernel(li, KernelAuto).Name(); name != "csr" {
		t.Fatalf("planner chose %q for a ragged matrix, want csr (band runs cannot dominate there)", name)
	}
}

// BenchmarkKernelMul measures the raw local product per layout on a stencil
// slab — the arithmetic floor the planner converts into solve wall-clock.
func BenchmarkKernelMul(b *testing.B) {
	a := stencil27(24) // 13824 rows, ~350k nnz
	l := localOf(b, a, 3456, 10368)
	x := make([]float64, l.M+l.G())
	for i := range x {
		x[i] = float64(i%17) * 0.25
	}
	dst := make([]float64, l.M)
	for _, kind := range []KernelKind{KernelCSR, KernelBand, KernelAuto} {
		k := BuildKernel(l, kind)
		b.Run(kind.String(), func(b *testing.B) {
			b.SetBytes(int64(12 * l.NNZ()))
			for i := 0; i < b.N; i++ {
				k.Mul(dst, x)
			}
		})
	}
}
