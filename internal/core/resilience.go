package core

import (
	"fmt"
	"math"
	"sort"

	"esrp/internal/aspmv"
	"esrp/internal/cluster"
	"esrp/internal/obs"
	"esrp/internal/vec"
)

// Message tags of the recovery protocols (disjoint from aspmv's tag range).
const (
	tagRecoverP0   = 200 // redundant p entries for iteration jrec-1
	tagRecoverP1   = 201 // redundant p entries for iteration jrec
	tagRecoverX    = 202 // halo of the surviving iterand for Alg. 2 line 7
	tagCheckpoint  = 210 // IMCR checkpoint shipment
	tagCkptRestore = 211 // IMCR checkpoint retrieval after a failure
	tagInnerGather = 220 // gathered-inner-solve ablation scatter
)

// resilience is the per-node strategy hook interface invoked by the solver
// loop. Implementations store redundant data; the recovery protocols
// themselves live on nodeRun because they orchestrate all nodes.
type resilience interface {
	// beforeSpMV is called at the top of iteration j, before the halo
	// exchange. It returns whether the exchange must be augmented, and may
	// duplicate local state (the paper's starred copies).
	beforeSpMV(j int) (augmented bool)
	// retain stores the redundant copy received by an augmented exchange.
	retain(rc aspmv.ReceivedCopy)
	// afterIteration is called after β of iteration j has been computed.
	afterIteration(j int, beta float64)
	// lose destroys all redundant data held by this node (node failure).
	lose()
	// stateBytes returns the redundant storage held, in bytes, for the
	// per-node memory accounting (Result.MaxNodeBytes).
	stateBytes() int64
}

// esrState implements redundant storage for ESR (T = 1) and ESRP (T > 2):
// the depth-3 redundancy queue plus the starred local duplicates
// x*, r*, z*, p*, β* and the staging scalar β** of Alg. 3.
type esrState struct {
	run   *nodeRun
	t     int // storage interval; 1 = ESR
	queue *aspmv.Queue

	xs, rs, zs, ps []float64 // starred copies (ESRP only)
	betaStar       float64
	betaPending    float64 // β** of Alg. 3
	starsIter      int     // iteration the starred copies belong to; -1 none
	hasStars       bool
}

func newESRState(run *nodeRun) *esrState {
	depth := 3
	if run.cfg.Strategy == StrategyESR {
		depth = 2 // copies of two successive iterations always present
	}
	return &esrState{
		run: run, t: run.cfg.T, queue: aspmv.NewQueue(depth),
		xs: run.alloc(run.m), rs: run.alloc(run.m),
		zs: run.alloc(run.m), ps: run.alloc(run.m),
		starsIter: -1,
	}
}

func (st *esrState) beforeSpMV(j int) bool {
	if st.t == 1 { // ESR: augment every iteration, no rollback state needed
		return true
	}
	switch {
	case j%st.t == 0 && j > 2: // first storage-stage iteration (Alg. 3 l.4)
		return true
	case (j-1)%st.t == 0 && j > 2: // second storage-stage iteration (l.7)
		// Duplicate the local state for iteration j; these copies are what
		// the surviving nodes reset to after a rollback (Alg. 3 l.9-10).
		copy(st.xs, st.run.x)
		copy(st.rs, st.run.r)
		copy(st.zs, st.run.z)
		copy(st.ps, st.run.p)
		st.betaStar = st.betaPending
		st.starsIter = j
		st.hasStars = true
		return true
	}
	return false
}

func (st *esrState) retain(rc aspmv.ReceivedCopy) {
	// Recycle the evicted copy's value buffer: steady-state ESR iterations
	// then reuse the same storage instead of growing the heap.
	if old, ok := st.queue.Push(rc); ok {
		st.run.ex.Recycle(old.Val)
	}
}

func (st *esrState) afterIteration(j int, beta float64) {
	// β of the first storage-stage iteration is the scalar the next
	// reconstruction will need (Alg. 3 l.6); it must not overwrite β* until
	// the stage completes.
	if st.t > 1 && j%st.t == 0 && j > 2 {
		st.betaPending = beta
	}
}

// stateBytes counts the starred duplicates and the queued copies' values
// (the copies' index layout is plan-static and shared, hence excluded).
func (st *esrState) stateBytes() int64 {
	b := 8 * int64(len(st.xs)+len(st.rs)+len(st.zs)+len(st.ps))
	return b + st.queue.ValBytes()
}

func (st *esrState) lose() {
	st.queue.Reset()
	vec.Zero(st.xs)
	vec.Zero(st.rs)
	vec.Zero(st.zs)
	vec.Zero(st.ps)
	st.betaStar, st.betaPending = 0, 0
	st.starsIter, st.hasStars = -1, false
}

// imcrState implements in-memory buddy checkpoint-restart: every T
// iterations each node ships the local parts of its solver variant's state
// vectors and trailing scalars to its φ buddy nodes (chosen by the same
// Eq. 1 as the ASpMV designated destinations) and keeps a local copy for its
// own rollback. Standard PCG checkpoints x, r, z, p; pipelined PCG its eight
// vectors plus γ and α.
type imcrState struct {
	run     *nodeRun
	t       int
	vecs    [][]float64 // checkpointed local vectors, in payload order
	scalars []*float64  // checkpointed scalars, appended after vecs
	buddies []int       // ranks I checkpoint to
	sources []int       // ranks that checkpoint to me (ascending)

	ownIter int // iteration the local checkpoint restores; -1 none
	ownData []float64
	held    map[int][]float64 // source rank -> latest checkpoint payload
}

func newIMCRState(run *nodeRun, vecs [][]float64, scalars []*float64) *imcrState {
	n := run.cfg.Nodes
	s := run.nd.Rank()
	st := &imcrState{
		run: run, t: run.cfg.T, vecs: vecs, scalars: scalars, ownIter: -1,
		held: make(map[int][]float64),
	}
	for k := 1; k <= run.cfg.Phi; k++ {
		st.buddies = append(st.buddies, aspmv.Designated(s, k, n))
	}
	for u := 0; u < n; u++ {
		if u == s {
			continue
		}
		for k := 1; k <= run.cfg.Phi; k++ {
			if aspmv.Designated(u, k, n) == s {
				st.sources = append(st.sources, u)
				break
			}
		}
	}
	sort.Ints(st.sources)
	// Seed this node's free list with two checkpoint-sized buffers per
	// source before any round: one carries the source's next shipment while
	// the other is held here as the latest checkpoint. Seeding both up front
	// keeps the working set at two whichever node reaches the first round
	// first — seeding lazily at the first round let a source's first send
	// consume the lone seed, after which every later send raced this node's
	// same-window Release and allocated whenever it won. The slack absorbs
	// uneven partition sizes (the source's m can exceed ours by one row per
	// vector).
	for range st.sources {
		run.nd.Release(make([]float64, st.size()+8))
		run.nd.Release(make([]float64, st.size()+8))
	}
	return st
}

// size is the length of a checkpoint payload.
func (st *imcrState) size() int { return len(st.vecs)*st.run.m + len(st.scalars) }

func (st *imcrState) beforeSpMV(int) bool       { return false }
func (st *imcrState) retain(aspmv.ReceivedCopy) { panic("core: IMCR retains no ASpMV copies") }

// afterIteration checkpoints standard PCG after every T-th iteration j. The
// state now in x, r, z, p is the state at the start of iteration j+1, so the
// checkpoint restores iteration j+1 — the same recovery point ESRP's storage
// stage at (j, j+1) yields.
func (st *imcrState) afterIteration(j int, _ float64) {
	if j%st.t == 0 && j != 0 {
		st.checkpoint(j + 1)
	}
}

// checkpoint copies the variant's state into the local checkpoint, which
// restores iteration iter, and ships it to the buddies. The payload reuses
// the previous checkpoint's backing array (Send copies it into a pooled
// buffer before it leaves the node).
func (st *imcrState) checkpoint(iter int) {
	payload := st.ownData[:0]
	if cap(payload) < st.size() {
		payload = make([]float64, 0, st.size())
	}
	for _, v := range st.vecs {
		payload = append(payload, v...)
	}
	for _, s := range st.scalars {
		payload = append(payload, *s)
	}
	st.ownIter = iter
	st.ownData = payload
	st.ship()
}

// ship sends the local checkpoint to the buddies and receives the sources'
// checkpoints, recycling the buffers they supersede.
func (st *imcrState) ship() {
	run := st.run
	tCkpt := run.nd.Clock()
	for _, b := range st.buddies {
		run.nd.Send(b, tagCheckpoint, st.ownData)
	}
	for _, src := range st.sources {
		if old := st.held[src]; old != nil {
			run.nd.Release(old)
		}
		st.held[src] = run.nd.Recv(src, tagCheckpoint)
	}
	run.tr.Span(obs.KindCheckpoint, tCkpt, run.nd.Clock())
}

// restore loads a checkpoint payload into the variant's state.
func (st *imcrState) restore(data []float64) {
	if len(data) != st.size() {
		panic(fmt.Sprintf("core: checkpoint size %d, want %d", len(data), st.size()))
	}
	m := st.run.m
	for i, v := range st.vecs {
		copy(v, data[i*m:(i+1)*m])
	}
	for i, s := range st.scalars {
		*s = data[len(st.vecs)*m+i]
	}
}

func (st *imcrState) stateBytes() int64 {
	b := 8 * int64(len(st.ownData))
	for _, d := range st.held {
		b += 8 * int64(len(d))
	}
	return b
}

func (st *imcrState) lose() {
	st.ownIter = -1
	st.ownData = nil
	st.held = make(map[int][]float64)
}

// ---------------------------------------------------------------------------
// Failure handling on nodeRun
// ---------------------------------------------------------------------------

// loseDynamicState simulates the node failure: all dynamic solver data held
// by this node is zeroed, exactly as in the paper's framework (Section 4).
// Static data (matrix, preconditioner, right-hand side, communication plan)
// is retained, standing in for the reload from safe storage whose cost the
// paper excludes from measurement.
func (run *nodeRun) loseDynamicState() {
	vec.Zero(run.x)
	vec.Zero(run.r)
	vec.Zero(run.z)
	vec.Zero(run.p)
	vec.Zero(run.q)
	vec.Zero(run.pg)
	run.rz = 0
	run.betaPrev = 0
	run.bNormGlobal = 0
	if run.res != nil {
		run.res.lose()
	}
}

func (run *nodeRun) amFailed(failed []int) bool {
	for _, r := range failed {
		if r == run.nd.Rank() {
			return true
		}
	}
	return false
}

// lowestSurvivor returns the smallest rank outside the contiguous failed
// block (guaranteed to exist: not all nodes may fail).
func (run *nodeRun) lowestSurvivor(failed []int) int {
	if failed[0] > 0 {
		return 0
	}
	return failed[len(failed)-1] + 1
}

func rankIsFailed(failed []int, s int) bool {
	return len(failed) > 0 && s >= failed[0] && s <= failed[len(failed)-1]
}

// handleFailure processes one timeline event on every node: it decides
// between the spare-pool recovery and the no-spare shrink fallback, runs the
// strategy's protocol, and records the event and its wasted work. It
// returns the iteration the solver resumes from and the recovery mode. All
// inputs to the decision (timeline, spare counter, cluster size) are
// replicated deterministically, so every node branches identically without
// communication.
func (run *nodeRun) handleFailure(j int, ev *FailureSpec) (int, string) {
	run.nextEvent++
	failed := ev.Ranks
	// Events outlive the cluster they were written against: after a shrink
	// the rank space is smaller, and an event whose block no longer exists
	// (or that would kill every remaining node) is dropped, visibly.
	if n := run.nd.Size(); failed[len(failed)-1] >= n || len(failed) >= n {
		run.logEvent(ev, failed, RecoverySkipped, j, j)
		return j, RecoverySkipped
	}
	// All spans until the restored scalars belong to this event's recovery
	// phase; the KindRecovery envelope recorded at the end encloses them
	// for the per-event breakdown.
	tEnv := run.nd.Clock()
	run.nd.Sched().EnvStart(j)
	run.tr.SetPhase(obs.PhaseRecovery)
	if dt := run.cfg.DetectionTime; dt > 0 {
		t0 := run.nd.Clock()
		run.nd.AddClock(dt) // failure detection + communicator repair
		run.tr.Span(obs.KindDetect, t0, run.nd.Clock())
	}
	var jrec int
	var mode string
	switch run.cfg.Strategy {
	case StrategyNone:
		jrec, mode = run.v.restart(j, failed)
	case StrategyESR, StrategyESRP:
		if run.sparesLeft >= 0 && run.sparesLeft < len(failed) {
			// Pool exhausted (or was empty from the start): no replacements
			// for this event, recover onto the survivors.
			jrec, mode = run.recoverNoSpare(j, failed)
		} else {
			if run.sparesLeft > 0 {
				run.sparesLeft -= len(failed)
			}
			jrec, mode = run.recoverESR(j, failed)
		}
	case StrategyIMCR:
		jrec, mode = run.recoverIMCR(j, failed)
	default:
		panic(fmt.Sprintf("core: no recovery for strategy %v", run.cfg.Strategy))
	}
	// The protocols measure their own elapsed time from after the detection
	// charge, so the detection cost is added on top here.
	run.recoveryTime += run.cfg.DetectionTime
	run.nd.Sched().RecCharge(run.cfg.DetectionTime)
	run.tr.Envelope(j, tEnv, run.nd.Clock())
	run.nd.Sched().EnvEnd()
	run.tr.SetPhase(obs.PhaseSteady)
	run.wastedIters += j - jrec
	run.recoveredAt = jrec
	run.recovered = true
	if !run.retired {
		run.logEvent(ev, failed, mode, jrec, j)
	}
	return jrec, mode
}

// logEvent appends one handled event to the node's replicated log.
func (run *nodeRun) logEvent(ev *FailureSpec, failed []int, mode string, jrec, j int) {
	run.eventLog = append(run.eventLog, RecoveryEvent{
		Iteration:   ev.Iteration,
		Ranks:       append([]int(nil), failed...),
		Mode:        mode,
		RecoveredAt: jrec,
		WastedIters: j - jrec,
		SparesLeft:  run.sparesLeft,
		ActiveNodes: run.nd.Size(),
	})
}

// restart is the standard variant's StrategyNone recovery: a local restart.
func (run *nodeRun) restart(j int, failed []int) (int, string) {
	return run.localRestart(j, failed), RecoveryRestart
}

// localRestart is the no-redundancy fallback (and the StrategyNone
// behaviour): lost entries stay zeroed and the Krylov process restarts from
// the surviving iterand, discarding all built-up search-direction
// conjugacy. This is the expensive scenario motivating ESR.
func (run *nodeRun) localRestart(j int, failed []int) int {
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()
	if run.amFailed(failed) {
		run.loseDynamicState()
	}
	run.initFromX()
	run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
	run.nd.Sched().RecEnd()
	return j
}

// initFromX recomputes r = b − A·x, z = P·r, p = z, rz, and ‖b‖ from the
// current iterand — the restart path shared by bootstrap and localRestart.
func (run *nodeRun) initFromX() {
	bLoc := run.cfg.B[run.lo:run.hi]
	copy(run.p, run.x)
	run.spmv(false, -1)
	vec.Sub(run.r, bLoc, run.q)
	run.compute(obs.KindVec, float64(run.m))
	run.pc.Apply(run.z, run.r)
	run.compute(obs.KindPrecond, run.pc.ApplyFlops())
	copy(run.p, run.z)
	rzLoc := vec.Dot(run.r, run.z)
	bbLoc := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 4*float64(run.m))
	run.rz, run.bNormGlobal = run.dot2(rzLoc, bbLoc)
	run.bNormGlobal = math.Sqrt(run.bNormGlobal)
	if run.bNormGlobal == 0 {
		run.bNormGlobal = 1
	}
}

// recoverESR implements the ESR/ESRP recovery: determine the reconstruction
// iteration, roll surviving nodes back to their starred copies, gather the
// redundant search directions and the iterand halo at the replacement
// nodes, and run the exact state reconstruction of Alg. 2. It returns the
// resume iteration and the recovery mode (RecoverySpare, or RecoveryRestart
// when there is nothing to reconstruct from).
func (run *nodeRun) recoverESR(j int, failed []int) (int, string) {
	st := run.res.(*esrState)
	flo, fhi := run.part.RangeOfParts(failed[0], failed[len(failed)-1]+1)
	amFailed := run.amFailed(failed)
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()

	if amFailed {
		run.loseDynamicState()
	} else if st.t > 1 {
		// Surviving nodes reset their state to the starred duplicates so
		// that all nodes continue from the reconstructed iteration.
		if st.hasStars {
			copy(run.x, st.xs)
			copy(run.r, st.rs)
			copy(run.z, st.zs)
			copy(run.p, st.ps)
		}
	}

	// The lowest surviving rank announces the reconstruction iteration and
	// β* (the paper's "retrieve the redundant copy of β", Alg. 2 line 3).
	root := run.lowestSurvivor(failed)
	var hdr [3]float64
	if run.nd.Rank() == root {
		if st.t == 1 && j >= 1 {
			// ESR reconstructs iteration j from p′^(j−1) and p′^(j): both
			// exist once at least one full iteration has completed.
			hdr = [3]float64{float64(j), run.betaPrev, 1}
		} else if st.t > 1 && st.hasStars {
			hdr = [3]float64{float64(st.starsIter), st.betaStar, 1}
		} else {
			hdr = [3]float64{0, 0, 0} // no completed storage stage yet
		}
	}
	run.nd.Bcast(root, hdr[:])
	jrec, betaStar, recoverable := int(hdr[0]), hdr[1], hdr[2] != 0

	if !recoverable {
		// Failure before the first storage stage completed: nothing to
		// reconstruct from; fall back to the local restart.
		if !amFailed {
			// Roll back nothing; survivors keep their current state.
		}
		run.initFromX()
		run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
		run.nd.Sched().RecEnd()
		return j, RecoveryRestart
	}

	// Gather the redundant copies p′^(jrec−1) and p′^(jrec) for the failed
	// index range at the replacement nodes. The set of surviving holders of
	// each failed node's entries is static: the plain and resilient-copy
	// receivers of that node's ASpMV traffic.
	run.recPrev = growF(run.recPrev, run.m)
	run.recCur = growF(run.recCur, run.m)
	run.recCovered = growI(run.recCovered, run.m) // bitmask: 1 = prev seen, 2 = cur seen
	pPrev, pCur, covered := run.recPrev, run.recCur, run.recCovered
	// Reconstruction scratch high-water mark: every node allocates the
	// gather buffers, but only the failed (reconstructing) nodes run the
	// inner solve and hold its working vectors.
	run.notePeak(8 * int64(3*run.m /* pPrev, pCur, covered */))
	if amFailed {
		run.notePeak(8 * int64(3*run.m+7*run.m /* w + inner PCG vectors */))
	}
	tGather := run.nd.Clock()
	for pass, tag := range []int{tagRecoverP0, tagRecoverP1} {
		iter := jrec - 1 + pass
		if !amFailed {
			c := st.queue.Get(iter)
			for _, fr := range failed {
				if !run.holdsEntriesOf(fr) {
					continue
				}
				var idx []int
				var val []float64
				if c != nil {
					idx, val = c.Lookup(run.part.Lo(fr), run.part.Hi(fr))
				}
				run.nd.SendFI(fr, tag, val, idx)
			}
		} else {
			dst := pPrev
			if pass == 1 {
				dst = pCur
			}
			for _, s := range run.survivingHoldersOf(run.nd.Rank(), failed) {
				val, idx := run.nd.RecvFI(s, tag)
				for k, gi := range idx {
					if gi >= run.lo && gi < run.hi {
						dst[gi-run.lo] = val[k]
						covered[gi-run.lo] |= 1 << pass
					}
				}
			}
		}
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())
	if len(run.events) > 1 {
		// Multi-event timelines can leave the gathered copies incomplete: a
		// holder that itself failed earlier lost its queue, and the stage
		// whose copies we need may predate its recovery. The nodes vote on
		// coverage; on any gap the whole cluster degrades to a consistent
		// local restart instead of reconstructing from partial data.
		okLoc := 1.0
		if amFailed {
			for _, c := range covered {
				if c != 3 {
					okLoc = 0
					break
				}
			}
		}
		if run.nd.AllreduceScalar(cluster.OpMin, okLoc) == 0 {
			run.initFromX()
			run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
			run.nd.Sched().RecEnd()
			// ESRP survivors were already rolled back to the starred state
			// of iteration jrec before the vote, so resuming there keeps
			// the counter consistent with the state and the discarded work
			// [jrec, j) counted. ESR (t = 1) never rolled back: resume at j.
			if st.t > 1 {
				return jrec, RecoveryRestart
			}
			return j, RecoveryRestart
		}
	} else if amFailed {
		for i, c := range covered {
			if c != 3 {
				panic(fmt.Sprintf("core: entry %d of failed node %d not covered by redundant copies (mask %d)",
					run.lo+i, run.nd.Rank(), c))
			}
		}
	}

	// Halo of the surviving iterand x (Alg. 2 lines 2 and 7): survivors send
	// the entries the failed rows couple to; the failed node scatters them
	// into its compact ghost buffer (run.pg's ghost region — a scratch at
	// this point, refreshed by the next exchange anyway).
	me := run.nd.Rank()
	xg := run.pg[run.m:]
	tGather = run.nd.Clock()
	if !amFailed {
		for _, fr := range failed {
			for _, t := range run.plan.Recv[fr] {
				if t.Peer != me {
					continue
				}
				run.sendScratch = growF(run.sendScratch, len(t.Idx))
				buf := run.sendScratch
				for k, gi := range t.Idx {
					buf[k] = run.x[gi-run.lo]
				}
				run.nd.Send(fr, tagRecoverX, buf)
			}
		}
	} else {
		vec.Zero(xg)
		for ti, t := range run.plan.Recv[me] {
			if rankIsFailed(failed, t.Peer) {
				continue // unknowns of the inner system, not data
			}
			vals := run.nd.Recv(t.Peer, tagRecoverX)
			copy(xg[run.plan.RecvGhostOffset(me, ti):], vals)
		}
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())

	// Exact state reconstruction on the replacement nodes (Alg. 2).
	if amFailed {
		// Line 4: z_If = p^(jrec)_If − β* p^(jrec−1)_If.
		for i := 0; i < run.m; i++ {
			run.z[i] = pCur[i] - betaStar*pPrev[i]
		}
		run.compute(obs.KindReconstruct, 2*float64(run.m))
		// Lines 5–6: v = z_If − P[If,I\If]·r (zero off-part for node-local
		// preconditioners), then solve P[If,If]·r_If = v.
		run.pc.SolveRestricted(run.r, run.z)
		run.compute(obs.KindReconstruct, run.pc.SolveRestrictedFlops())
		// Line 7: w = b_If − r_If − A[If,I\If]·x_(I\If), on the compact
		// local matrix: owned columns lie inside If by construction, ghost
		// columns owned by other failed ranks are inner-system unknowns —
		// both are skipped, leaving exactly the surviving coupling.
		run.recW = growF(run.recW, run.m)
		w := run.recW
		bLoc := run.cfg.B[run.lo:run.hi]
		for i := 0; i < run.m; i++ {
			cols, vals := run.local.Row(i)
			var s float64
			for k, c := range cols {
				if c < run.m {
					continue
				}
				if gi := run.local.Ghost[c-run.m]; gi >= flo && gi < fhi {
					continue
				}
				s += vals[k] * xg[c-run.m]
			}
			w[i] = bLoc[i] - run.r[i] - s
		}
		run.compute(obs.KindReconstruct, 2*run.nnzLocal)
		// Line 8: solve A[If,If]·x_If = w on the replacement nodes.
		run.innerSolve(failed, flo, fhi, w)
		copy(run.p, pCur)
	}

	run.restoreScalars(betaStar, st)
	run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
	run.nd.Sched().RecEnd()
	return jrec, RecoverySpare
}

// holdsEntriesOf reports whether this (surviving) node statically receives
// redundant copies of entries owned by rank fr.
func (run *nodeRun) holdsEntriesOf(fr int) bool {
	me := run.nd.Rank()
	for _, t := range run.plan.Send[fr] {
		if t.Peer == me {
			return true
		}
	}
	for _, t := range run.plan.ExtraSend[fr] {
		if t.Peer == me {
			return true
		}
	}
	return false
}

// survivingHoldersOf returns, in ascending order, the surviving ranks that
// hold redundant copies of at least one entry owned by rank owner. This is
// the exact set of ranks whose holdsEntriesOf(owner) is true, so the gather
// protocol's sends and receives pair up one-to-one even when multiple failed
// nodes have different holder sets.
func (run *nodeRun) survivingHoldersOf(owner int, failed []int) []int {
	mark := make([]bool, run.nd.Size())
	for _, t := range run.plan.Send[owner] {
		mark[t.Peer] = true
	}
	for _, t := range run.plan.ExtraSend[owner] {
		mark[t.Peer] = true
	}
	var out []int
	for s, m := range mark {
		if m && !rankIsFailed(failed, s) {
			out = append(out, s)
		}
	}
	return out
}

// restoreScalars re-establishes the replicated scalars after a rollback:
// rz and ‖b‖ by a fused allreduce, β bookkeeping from β* so that the
// resumed storage stage re-saves identical data.
func (run *nodeRun) restoreScalars(betaStar float64, st *esrState) {
	bLoc := run.cfg.B[run.lo:run.hi]
	rzLoc := vec.Dot(run.r, run.z)
	bbLoc := vec.Dot(bLoc, bLoc)
	run.compute(obs.KindVec, 4*float64(run.m))
	run.rz, run.bNormGlobal = run.dot2(rzLoc, bbLoc)
	run.bNormGlobal = math.Sqrt(run.bNormGlobal)
	if run.bNormGlobal == 0 {
		run.bNormGlobal = 1
	}
	run.betaPrev = betaStar
	if st != nil {
		st.betaPending = betaStar
	}
}

// resumeScalars re-establishes standard PCG's replicated scalars after an
// IMCR rollback.
func (run *nodeRun) resumeScalars() { run.restoreScalars(0, nil) }

// recoverIMCR implements the checkpoint-restart recovery: replacements
// retrieve their state from a surviving buddy, survivors roll back to their
// local checkpoint copy. Without a checkpoint (none taken yet, or the
// pipelined solver under StrategyNone) every node restarts from its iterand.
func (run *nodeRun) recoverIMCR(j int, failed []int) (int, string) {
	st, _ := run.res.(*imcrState)
	n := run.nd.Size()
	amFailed := run.amFailed(failed)
	t0 := run.nd.Clock()
	run.nd.Sched().RecStart()

	if amFailed {
		run.v.loseDynamicState()
	}
	root := run.lowestSurvivor(failed)
	var hdr [2]float64
	if run.nd.Rank() == root && st != nil && st.ownIter >= 0 {
		hdr = [2]float64{float64(st.ownIter), 1}
	}
	run.nd.Bcast(root, hdr[:])
	jrec, recoverable := int(hdr[0]), hdr[1] != 0
	if !recoverable {
		run.v.initFromX()
		run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
		run.nd.Sched().RecEnd()
		return j, RecoveryRestart
	}

	// For each failed node, its designated sender is the first surviving
	// buddy in Eq. 1 order — computable by every node without communication.
	tGather := run.nd.Clock()
	for _, fr := range failed {
		var sender = -1
		for k := 1; k <= run.cfg.Phi; k++ {
			b := aspmv.Designated(fr, k, n)
			if !rankIsFailed(failed, b) {
				sender = b
				break
			}
		}
		if sender < 0 {
			panic(fmt.Sprintf("core: no surviving buddy for failed rank %d", fr))
		}
		me := run.nd.Rank()
		if me == sender {
			data, ok := st.held[fr]
			if !ok {
				panic(fmt.Sprintf("core: buddy %d holds no checkpoint of %d", me, fr))
			}
			run.nd.Send(fr, tagCkptRestore, data)
		} else if me == fr {
			data := run.nd.Recv(sender, tagCkptRestore)
			run.notePeak(8 * int64(len(data))) // restore payload in flight
			st.restore(data)
			st.ownIter = jrec
			st.ownData = append(st.ownData[:0], data...)
			run.nd.Release(data)
		}
	}
	if !amFailed {
		st.restore(st.ownData)
	}
	run.tr.Span(obs.KindRecoverGather, tGather, run.nd.Clock())
	if run.pendingEvents() {
		// More events may strike before the next checkpoint stage, and the
		// nodes that just failed hold no checkpoints of their sources any
		// more. Re-run the checkpoint exchange for the restored state so
		// every buddy relationship is whole again — otherwise a follow-up
		// failure whose surviving buddy is a just-recovered node would find
		// nothing to restore from.
		st.ship()
	}
	run.v.resumeScalars()
	run.recoveryTime = math.Max(run.recoveryTime, run.nd.Clock()-t0)
	run.nd.Sched().RecEnd()
	return jrec, RecoverySpare
}
