package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"esrp"
)

// fat-solve settings: few fat nodes, so the kernels do most of the work.
const (
	fatNodes = 4
	fatT     = 20
	fatPhi   = 1
	fatRtol  = 1e-8
	// errBound is the ‖x−x*‖∞/‖x*‖∞ every fat-solve solve must reach; the
	// solves land near 1e-6 at rtol 1e-8.
	errBound = 1e-4
)

// reference.json holds the default seed's fat-solve reference values.
//
//go:embed reference.json
var referenceJSON []byte

// fatCase is one solve of the round.
type fatCase struct {
	label  string
	sys    *system
	cfg    esrp.Config
	failed bool // a node failure is injected
}

// solveFacts are the machine-independent outputs every repeat of a solve
// must reproduce bit for bit.
type solveFacts struct {
	Case       string  `json:"case"`
	SimTime    float64 `json:"sim_time_s"`
	Iterations int     `json:"iterations"`
	TotalSteps int     `json:"total_steps"`
	BytesSent  int64   `json:"bytes_sent"`
	MsgsSent   int64   `json:"msgs_sent"`
}

func factsOf(label string, r *esrp.Result) solveFacts {
	return solveFacts{label, r.SimTime, r.Iterations, r.TotalSteps, r.BytesSent, r.MsgsSent}
}

// fatSolve: one op is a round of 8 esrp.Solve calls in a fixed order — two
// matrices × {none, ESR, ESRP T=20, IMCR T=20}, φ=1, each resilient solve
// losing one rank at half the reference iteration count.
type fatSolve struct {
	seed      int64
	systems   []*system
	cases     []fatCase
	failRank  int
	failIters []int
	refs      []solveFacts // each case's first solve in this run
	committed []solveFacts // default seed only
}

func fatSystems(seed int64) []*system {
	return []*system{
		newSystem(seed, "emilia24", esrp.EmiliaLike(24, 24, 24, matrixSeed("emilia24"))),
		newSystem(seed, "audikw12", esrp.AudikwLike(12, 12, 12, 3, matrixSeed("audikw12"))),
	}
}

func (f *fatSolve) setup() error {
	f.systems = fatSystems(f.seed)
	f.failRank = pick(f.seed, "fail-rank", fatNodes)
	offset := pick(f.seed, "fail-offset", 11) - 5
	for _, s := range f.systems {
		base := esrp.Config{A: s.a, B: s.b, Nodes: fatNodes, Rtol: fatRtol}
		plain, err := esrp.Prepare(base)
		if err != nil {
			return err
		}
		augCfg := base
		augCfg.Strategy, augCfg.Phi = esrp.StrategyESR, fatPhi
		aug, err := esrp.Prepare(augCfg)
		if err != nil {
			return err
		}
		ref := base
		ref.Prepared = plain
		r, err := esrp.Solve(ref)
		if err != nil {
			return fmt.Errorf("%s reference solve: %w", s.name, err)
		}
		failIter := r.Iterations/2 + offset
		f.failIters = append(f.failIters, failIter)
		for _, st := range []esrp.Strategy{esrp.StrategyNone, esrp.StrategyESR, esrp.StrategyESRP, esrp.StrategyIMCR} {
			c := fatCase{label: fmt.Sprintf("%s/%v", s.name, st), sys: s, cfg: base}
			c.cfg.Strategy = st
			c.cfg.Prepared = plain
			if st != esrp.StrategyNone {
				c.cfg.T, c.cfg.Phi = fatT, fatPhi
				c.cfg.Failure = &esrp.FailureSpec{Iteration: failIter, Ranks: []int{f.failRank}}
				c.failed = true
			}
			if st == esrp.StrategyESR || st == esrp.StrategyESRP {
				c.cfg.Prepared = aug
			}
			f.cases = append(f.cases, c)
		}
	}
	// The reference round: each case's first solve is what every later
	// repeat must match.
	out, err := f.op(nil)
	if err != nil {
		return err
	}
	if err := f.check(out); err != nil {
		return fmt.Errorf("reference round: %w", err)
	}
	for i, r := range out.([]*esrp.Result) {
		f.refs = append(f.refs, factsOf(f.cases[i].label, r))
	}
	if f.seed == defaultSeed {
		var ref struct {
			FatSolve []solveFacts `json:"fat-solve"`
		}
		if err := json.Unmarshal(referenceJSON, &ref); err != nil {
			return fmt.Errorf("reference.json: %w", err)
		}
		f.committed = ref.FatSolve
	}
	return nil
}

func (f *fatSolve) restore() error { return nil }

func (f *fatSolve) op(t *tracer) (any, error) {
	res := make([]*esrp.Result, len(f.cases))
	for i, c := range f.cases {
		cfg := c.cfg
		cfg.HostStats = t.barrierStats(fatNodes)
		sp := t.begin("core", "esrp.Solve "+c.label)
		r, err := esrp.Solve(cfg)
		t.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		t.addMemberTime(fatNodes, r.WallTime.Seconds())
		res[i] = r
	}
	return res, nil
}

func (f *fatSolve) check(out any) error {
	for i, r := range out.([]*esrp.Result) {
		c := &f.cases[i]
		got := factsOf(c.label, r)
		switch {
		case !r.Converged:
			return fmt.Errorf("%s: did not converge", c.label)
		case c.failed && !r.Recovered:
			return fmt.Errorf("%s: failure injected but not recovered", c.label)
		case relErrInf(r.X, c.sys.xstar) >= errBound:
			return fmt.Errorf("%s: ‖x−x*‖∞/‖x*‖∞ = %.3g ≥ %g", c.label, relErrInf(r.X, c.sys.xstar), errBound)
		case f.refs != nil && got != f.refs[i]:
			return fmt.Errorf("%s: %+v differs from the run's first solve %+v", c.label, got, f.refs[i])
		case f.committed != nil && (i >= len(f.committed) || got != f.committed[i]):
			return fmt.Errorf("%s: %+v differs from the committed reference", c.label, got)
		}
	}
	return nil
}

func (f *fatSolve) cellsPerOp() int { return len(f.cases) }

func (f *fatSolve) counts() kernelCounts {
	var k kernelCounts
	for i, c := range f.cases {
		k.add(c.sys.a, f.refs[i].TotalSteps)
	}
	return k
}

func (f *fatSolve) sizes() map[string]any {
	var mats []map[string]any
	for _, s := range f.systems {
		mats = append(mats, map[string]any{"name": s.name, "rows": s.a.Rows, "nnz": s.a.NNZ()})
	}
	return map[string]any{
		"matrices": mats, "nodes": fatNodes, "solves_per_op": len(f.cases),
		"fail_rank": f.failRank, "fail_iterations": f.failIters,
	}
}

func (f *fatSolve) cleanup() {}

func (f *fatSolve) layers(l *layerRun) error {
	l.genProbe(func() { fatSystems(f.seed) })
	if err := l.kernelProbes(f.systems, fatNodes, []int{0, fatPhi}); err != nil {
		return err
	}
	if err := l.clusterProbes(fatNodes); err != nil {
		return err
	}
	var cases []solveCase
	var contexts []esrp.Config
	iters, steps := 0, 0
	for i, c := range f.cases {
		ref := f.refs[i]
		cases = append(cases, solveCase{label: c.label, sys: c.sys, cfg: c.cfg, check: func(r *esrp.Result) error {
			if got := factsOf(ref.Case, r); got != ref {
				return fmt.Errorf("%+v differs from %+v", got, ref)
			}
			return nil
		}})
		if st := c.cfg.Strategy; st == esrp.StrategyNone || st == esrp.StrategyESR {
			ctx := c.cfg
			ctx.Prepared, ctx.Failure = nil, nil
			contexts = append(contexts, ctx)
		}
		iters += ref.Iterations
		steps += ref.TotalSteps
	}
	if err := l.solverProbes(cases, contexts); err != nil {
		return err
	}
	l.set("core.useful_step_share", float64(iters)/float64(steps))

	// No campaign runs on this workload's op path: the probe runs the
	// round's resilient solves as one fixed-failure grid per matrix.
	return l.campaignProbe("esrp.RunCampaign fixed-failure grids", func(workers int) (int, error) {
		cells := 0
		for si, s := range f.systems {
			rep, err := esrp.RunCampaign(esrp.CampaignGrid{
				Matrices:   []esrp.CampaignMatrix{{Name: s.name, A: s.a, B: s.b}},
				Nodes:      []int{fatNodes},
				Strategies: []esrp.Strategy{esrp.StrategyESR, esrp.StrategyESRP, esrp.StrategyIMCR},
				Ts:         []int{fatT},
				Phis:       []int{fatPhi},
				Scenario: esrp.FailureScenario{Model: esrp.ScenarioFixed,
					Schedule: []esrp.FailureSpec{{Iteration: f.failIters[si], Ranks: []int{f.failRank}}}},
				Workers: workers,
			})
			if err == nil {
				err = cellsOK(rep)
			}
			if err != nil {
				return 0, err
			}
			cells += len(rep.Cells)
		}
		return cells, nil
	})
}

// writeReference records the fat-solve reference values of seed into path.
func writeReference(path string, seed int64) error {
	f := &fatSolve{seed: seed}
	if err := f.setup(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(map[string]any{"seed": seed, "fat-solve": f.refs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
