package core

import (
	"fmt"
	"math"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/dist"
	"esrp/internal/obs"
	"esrp/internal/precond"
	"esrp/internal/sparse"
	"esrp/internal/vec"
)

// innerSolve solves A[If,If]·x_If = w (line 8 of Alg. 2) for this
// replacement node's share of the lost iterand, writing the result into
// run.x. By default the solve runs as a distributed PCG across the
// replacement sub-communicator, reusing each node's block Jacobi
// preconditioner (identical blocks, since blocks are node-local). With
// cfg.GatherInnerSolve the system is gathered to the first replacement and
// solved there sequentially (an ablation of that design choice).
//
// The extraction of A[If,If] and its communication plan stand in for the
// replacement nodes reloading static data from safe storage; like the
// paper, their cost is excluded from the modeled runtime (only Compute and
// message traffic advance the simulated clock).
func (run *nodeRun) innerSolve(failed []int, flo, fhi int, w []float64) {
	sub := run.subOf(failed)
	if sub == nil {
		panic("core: innerSolve called on a surviving node")
	}
	fsize := fhi - flo
	asub := run.cfg.A.SubRange(flo, fhi, flo, fhi)
	offsets := make([]int, len(failed)+1)
	for i, fr := range failed {
		offsets[i] = run.part.Lo(fr) - flo
	}
	offsets[len(failed)] = fsize
	ipart, err := dist.FromOffsets(offsets)
	if err != nil {
		panic(fmt.Sprintf("core: inner partition: %v", err))
	}

	maxIter := run.cfg.InnerMaxIter
	if maxIter <= 0 {
		maxIter = 100 * fsize
	}

	if run.cfg.GatherInnerSolve {
		run.innerSolveGathered(sub, asub, ipart, w, maxIter)
		return
	}

	iplan, err := aspmv.NewPlan(asub, ipart)
	if err != nil {
		panic(fmt.Sprintf("core: inner plan: %v", err))
	}
	x, halo := innerPCG(sub, asub, iplan, ipart, run.pc, w, run.cfg.InnerRtol, maxIter, run.cfg.BlockingExchange)
	run.ex.AddHaloBytes(halo) // the reconstruction's SpMV halo counts too
	copy(run.x, x)
}

// innerSolveGathered gathers the inner right-hand side at sub-rank 0, solves
// the whole lost-block system there with a sequential PCG, and scatters the
// solution back.
func (run *nodeRun) innerSolveGathered(sub *cluster.Node, asub *sparse.CSR, ipart *dist.Partition, w []float64, maxIter int) {
	parts := sub.Gather(0, w)
	if sub.Rank() == 0 {
		ball := make([]float64, asub.Rows)
		for s, p := range parts {
			copy(ball[ipart.Lo(s):ipart.Hi(s)], p)
		}
		seqPart := dist.NewBlockPartition(asub.Rows, 1)
		seqPlan, err := aspmv.NewPlan(asub, seqPart)
		if err != nil {
			panic(fmt.Sprintf("core: sequential inner plan: %v", err))
		}
		pc, err := precond.Build(run.cfg.PrecondKind, asub, 0, asub.Rows, run.cfg.MaxBlock)
		if err != nil {
			panic(fmt.Sprintf("core: sequential inner preconditioner: %v", err))
		}
		solo := sub.Sub([]int{sub.GlobalRank()})
		xall, _ := innerPCG(solo, asub, seqPlan, seqPart, pc, ball, run.cfg.InnerRtol, maxIter, run.cfg.BlockingExchange)
		copy(run.x, xall[ipart.Lo(0):ipart.Hi(0)])
		for s := 1; s < sub.Size(); s++ {
			sub.Send(s, tagInnerGather, xall[ipart.Lo(s):ipart.Hi(s)])
		}
		return
	}
	copy(run.x, sub.Recv(0, tagInnerGather))
}

// innerPCG is a plain distributed PCG without resilience, used for the
// reconstruction inner systems. nd is a (sub-)communicator handle whose
// rank corresponds to ipart's parts; b is the local right-hand side block;
// the returned slice is the local solution block. Convergence:
// ‖r‖₂/‖b‖₂ < rtol (exactly, since x0 = 0). Like the outer solver, the
// inner SpMV runs on the compact owned+ghost index space with the interior
// product overlapping the in-flight halo (unless blocking). The second
// return value is the halo payload this rank shipped during the solve, for
// the caller to fold into its measured-halo counter.
func innerPCG(nd *cluster.Node, a *sparse.CSR, plan *aspmv.Plan, ipart *dist.Partition, pc precond.Preconditioner, b []float64, rtol float64, maxIter int, blocking bool) ([]float64, int64) {
	me := nd.Rank()
	lo, hi := ipart.Lo(me), ipart.Hi(me)
	m := hi - lo
	local, err := sparse.NewLocal(a, lo, hi, plan.Ghost(me))
	if err != nil {
		panic(fmt.Sprintf("core: inner local matrix: %v", err))
	}
	kern := sparse.BuildKernel(local, sparse.KernelAuto)
	ex := plan.NewExchanger(me)

	x := make([]float64, m)
	r := append([]float64(nil), b...)
	z := make([]float64, m)
	p := make([]float64, m)
	q := make([]float64, m)
	pg := make([]float64, m+local.G())

	dot2 := func(u, v float64) (float64, float64) {
		buf := [2]float64{u, v}
		nd.Allreduce(cluster.OpSum, buf[:])
		return buf[0], buf[1]
	}
	// Inner-solve compute lands under its own span kind so the
	// reconstruction's nested PCG is distinguishable from outer-loop work
	// on the timeline (its collectives and SpMV halves keep their own kinds).
	compute := func(flops float64) {
		t0 := nd.Clock()
		nd.Compute(flops)
		nd.Trace().Span(obs.KindInnerSolve, t0, nd.Clock())
	}

	pc.Apply(z, r)
	compute(pc.ApplyFlops())
	copy(p, z)
	rzLoc := vec.Dot(r, z)
	bbLoc := vec.Dot(b, b)
	compute(4 * float64(m))
	rz, bb := dot2(rzLoc, bbLoc)
	bNorm := math.Sqrt(bb)
	if bNorm == 0 {
		return x, ex.HaloBytes() // zero rhs: zero solution
	}

	for it := 0; it < maxIter; it++ {
		copy(pg[:m], p)
		ex.MulOverlapped(nd, kern, q, pg, blocking)

		pqLoc := vec.Dot(p, q)
		compute(2 * float64(m))
		pq := nd.AllreduceScalar(cluster.OpSum, pqLoc)
		if pq == 0 {
			break
		}
		alpha := rz / pq
		vec.AxpyPair(alpha, p, x, -alpha, q, r)
		compute(4 * float64(m))
		pc.Apply(z, r)
		compute(pc.ApplyFlops())
		var rrLoc float64
		rzLoc, rrLoc = vec.Dot2(r, z)
		compute(4 * float64(m))
		rzNew, rr := dot2(rzLoc, rrLoc)
		beta := rzNew / rz
		vec.XpayInto(p, z, beta, p)
		compute(2 * float64(m))
		rz = rzNew
		if math.Sqrt(rr)/bNorm < rtol {
			break
		}
	}
	return x, ex.HaloBytes()
}
