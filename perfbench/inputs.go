package main

import (
	"hash/fnv"

	"esrp"
)

// sub derives the seed of one generator from the workload seed and a label
// (a splitmix64 finalizer over seed XOR FNV-1a(label)), so every generator
// draws from its own stream and the program only ever sees generated inputs.
func sub(seed int64, label string) int64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	x := uint64(seed) ^ h.Sum64()
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// matrixSeed is the generator seed of a named matrix. It does not follow
// the workload seed: the random layer coefficients of EmiliaLike and
// AudikwLike move PCG iteration counts by ±10–15 % between generator seeds
// (171–210 on emilia24, 74–99 on audikw12, 110–161 on emilia16 over ten
// seeds), which would swamp every bound. The workload seed still moves x*,
// the failures and the campaign scenarios.
func matrixSeed(name string) int64 { return sub(defaultSeed, name) }

// pick maps a derived seed onto [0, n).
func pick(seed int64, label string, n int) int { return int(sub(seed, label) % int64(n)) }

// system is one generated SPD system with a known solution.
type system struct {
	name     string
	a        *esrp.CSR
	b, xstar []float64
}

func newSystem(seed int64, name string, a *esrp.CSR) *system {
	b, xstar := esrp.RHSForSolution(a, sub(seed, "xstar-"+name))
	return &system{name: name, a: a, b: b, xstar: xstar}
}

// kernelCounts is the computed SpMV work of one op: 2·nnz flops per product,
// and the compulsory traffic of the CSR layout (8-byte value and column
// index per nonzero; row pointer, x and y entry per row). Bytes are
// computed from array sizes, not measured: cache misses are ignored.
type kernelCounts struct{ flops, bytes float64 }

func (k *kernelCounts) add(a *esrp.CSR, products int) {
	k.flops += 2 * float64(a.NNZ()) * float64(products)
	k.bytes += (16*float64(a.NNZ()) + 24*float64(a.Rows)) * float64(products)
}
