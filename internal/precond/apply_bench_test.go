package precond

import (
	"testing"

	"esrp/internal/matgen"
)

// BenchmarkBlockJacobiApply measures the batched backsolve sweep on one
// node's share of a 16³ Emilia analog split over 16 nodes (256 rows,
// blocks ≤ 10).
func BenchmarkBlockJacobiApply(b *testing.B) {
	a := matgen.EmiliaLike(16, 16, 16, 923)
	p, err := NewBlockJacobi(a, 1024, 1280, 10)
	if err != nil {
		b.Fatal(err)
	}
	r := make([]float64, 256)
	z := make([]float64, 256)
	for i := range r {
		r[i] = float64(i%13) - 6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(z, r)
	}
}
