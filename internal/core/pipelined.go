package core

import (
	"fmt"
	"math"

	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/vec"
)

// SolvePipelined runs the communication-hiding pipelined PCG variant
// (Ghysels & Vanroose 2014) on the simulated cluster. The paper's related
// work [16] (Levonyak, Pacher, Gansterer, PP 2020) extends ESR to exactly
// this solver; here the pipelined solver is provided as a substrate with
// the strategies whose correctness does not depend on [16]'s additional
// redundancy machinery:
//
//   - StrategyNone — plain pipelined PCG; an injected failure triggers a
//     local restart from the surviving iterand.
//   - StrategyIMCR — in-memory buddy checkpointing of the full pipelined
//     state (eight vectors plus the two recurrence scalars) every T
//     iterations, with exact rollback.
//
// Pipelined PCG fuses the three dot products of an iteration into a single
// allreduce and hides it behind the preconditioner application and the
// SpMV. On the LogGP-modeled cluster the benefit appears directly: one
// synchronizing collective per iteration instead of two, which dominates
// when latency is high relative to local compute (the regime the method
// was designed for). Its known cost is also reproduced: the deeper
// auxiliary recurrences (s, q, z) drift further from the true residual
// than standard PCG (compare Result.Drift).
//
// The solve runs on Solve's driver, failure handler and IMCR: only the
// extra vectors, the bootstrap/restart and the loop body are its own.
func SolvePipelined(cfg Config) (*Result, error) { return solve(cfg, true) }

// checkPipelined rejects the options the pipelined solver does not
// implement, instead of silently running without them.
func checkPipelined(cfg *Config) error {
	if cfg.Strategy != StrategyNone && cfg.Strategy != StrategyIMCR {
		return fmt.Errorf("core: pipelined PCG supports strategies none and IMCR, got %v (ESR for pipelined solvers is ref. 16's contribution)", cfg.Strategy)
	}
	if cfg.ResidualReplacementInterval > 0 {
		return fmt.Errorf("core: pipelined PCG does not support ResidualReplacementInterval")
	}
	return nil
}

// pipeRun is the per-node state of the pipelined solver.
type pipeRun struct {
	*nodeRun // partition/plan/preconditioner plumbing, counters, x, r, p, q

	// Pipelined state: u = P·r, w = A·u, and the auxiliary recurrences
	// s = A·p, q = P·s, z = A·q.
	u, w, s, qv, zv, mv, nv []float64
	gammaOld, alphaOld      float64
}

func newPipeRun(base *nodeRun) *pipeRun {
	m := base.m
	// s, qv, zv and the base's p enter the first iteration's recurrences
	// multiplied by β = 0 — they must start as true zeros (0·NaN ≠ 0), so
	// they come from the clearing allocator. u, w, mv, nv are computed
	// before their first read and may reuse dirty workspace buffers.
	run := &pipeRun{
		nodeRun: base,
		u:       base.alloc(m), w: base.alloc(m),
		s: base.allocZero(m), qv: base.allocZero(m),
		zv: base.allocZero(m), mv: base.alloc(m),
		nv: base.alloc(m),
	}
	vec.Zero(run.p)                    // p was dirty-allocated by newNodeRun
	base.extraBytes = 8 * 7 * int64(m) // the seven vectors above
	return run
}

// checkpointed lists the pipelined state an IMCR checkpoint holds: eight
// vectors plus the two recurrence scalars.
func (run *pipeRun) checkpointed() ([][]float64, []*float64) {
	return [][]float64{run.x, run.r, run.u, run.w, run.p, run.s, run.qv, run.zv},
		[]*float64{&run.gammaOld, &run.alphaOld}
}

// bootstrap establishes r, u = P·r, w = A·u and ‖b‖. SpMVs go through the
// embedded nodeRun's compact overlapped data path (spmvInto).
func (run *pipeRun) bootstrap() {
	bLoc := run.cfg.B[run.lo:run.hi]
	if run.cfg.X0 != nil {
		copy(run.x, run.cfg.X0[run.lo:run.hi])
	}
	run.spmvInto(run.q, run.x)
	vec.Sub(run.r, bLoc, run.q)
	run.compute(obs.KindVec, float64(run.m))
	run.pc.Apply(run.u, run.r)
	run.compute(obs.KindPrecond, run.pc.ApplyFlops())
	run.spmvInto(run.w, run.u)
	run.resumeScalars()
}

// initFromX re-derives the pipelined state from the current iterand: the
// local restart after a failure with no checkpoint to roll back to.
func (run *pipeRun) initFromX() {
	run.bootstrap()
	vec.Zero(run.s)
	vec.Zero(run.qv)
	vec.Zero(run.zv)
	vec.Zero(run.p)
	run.gammaOld, run.alphaOld = 0, 0
}

// restart is the pipelined StrategyNone recovery: the IMCR protocol with no
// checkpoint to offer, whose header broadcast announces the local restart.
func (run *pipeRun) restart(j int, failed []int) (int, string) {
	return run.recoverIMCR(j, failed)
}

// loseDynamicState zeroes the node's pipelined state on top of the base's.
func (run *pipeRun) loseDynamicState() {
	run.nodeRun.loseDynamicState()
	for _, v := range [][]float64{run.u, run.w, run.s, run.qv, run.zv, run.mv, run.nv} {
		vec.Zero(v)
	}
	run.gammaOld, run.alphaOld = 0, 0
}

// resumeScalars establishes ‖b‖, the one replicated scalar outside an IMCR
// checkpoint (γ and α travel in it).
func (run *pipeRun) resumeScalars() {
	bLoc := run.cfg.B[run.lo:run.hi]
	bb := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 2*float64(run.m))
	run.bNormGlobal = math.Sqrt(run.nd.AllreduceScalar(cluster.OpSum, bb))
	if run.bNormGlobal == 0 {
		run.bNormGlobal = 1
	}
}

func (run *pipeRun) main(result *Result) {
	cfg := run.cfg
	run.bootstrap()
	ckpt, _ := run.res.(*imcrState) // nil for StrategyNone

	totalSteps := 0
	converged := false
	relres := math.Inf(1)
	j := 0
	firstIter := true
	for ; j < cfg.MaxIter; totalSteps++ {
		run.tr.SetIter(j)
		// Fused allreduce: γ = (r,u), δ = (w,u), ‖r‖² — the single
		// synchronization point per iteration, with the three local partial
		// sums fused into one sweep over r, u, w.
		gammaLoc, deltaLoc, rrLoc := vec.Dot3(run.r, run.u, run.w)
		buf := [3]float64{gammaLoc, deltaLoc, rrLoc}
		run.compute(obs.KindVec, 6*float64(run.m))
		run.nd.Allreduce(cluster.OpSum, buf[:])
		gamma, delta, rr := buf[0], buf[1], buf[2]
		relres = math.Sqrt(rr) / run.bNormGlobal
		if cfg.RecordResiduals && run.nd.Rank() == 0 {
			run.residLog = append(run.residLog, relres)
		}
		run.tr.Point(totalSteps, j, relres, run.nd.Clock(), run.nd.BytesSent(), run.nd.MsgsSent())
		if relres < cfg.Rtol {
			converged = true
			break
		}

		// Overlapped work: m = P·w, n = A·m (the SpMV whose halo exchange
		// hides the allreduce in a real implementation).
		run.pc.Apply(run.mv, run.w)
		run.compute(obs.KindPrecond, run.pc.ApplyFlops())
		run.spmvInto(run.nv, run.mv)

		// Failure injection point: after the SpMV of the marked iteration.
		// The pipelined solver never shrinks, so events always apply.
		if ev := run.dueEvent(j); ev != nil {
			if jrec, mode := run.handleFailure(j, ev); mode != RecoverySkipped {
				j = jrec
				firstIter = run.gammaOld == 0 // restart path resets the recurrences
				continue
			}
		}

		var alpha, beta float64
		if firstIter {
			beta = 0
			alpha = gamma / delta
		} else {
			beta = gamma / run.gammaOld
			alpha = gamma / (delta - beta*gamma/run.alphaOld)
		}
		firstIter = false

		// Auxiliary recurrences (z = A·q, q = P·s, s = A·p implicitly).
		vec.XpayInto(run.zv, run.nv, beta, run.zv)
		vec.XpayInto(run.qv, run.mv, beta, run.qv)
		vec.XpayInto(run.s, run.w, beta, run.s)
		vec.XpayInto(run.p, run.u, beta, run.p)
		vec.AxpyPair(alpha, run.p, run.x, -alpha, run.s, run.r)
		vec.AxpyPair(-alpha, run.qv, run.u, -alpha, run.zv, run.w)
		run.compute(obs.KindVec, 16*float64(run.m))

		run.gammaOld, run.alphaOld = gamma, alpha
		j++
		// IMCR: the state now held is the state at the start of iteration
		// j, so every T-th checkpoint restores iteration j.
		if ckpt != nil && j%ckpt.t == 0 {
			ckpt.checkpoint(j)
		}
	}
	run.finish(result, converged, j, totalSteps, relres)
}
