package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"esrp"
)

// Campaign grid settings: many thin nodes, so synchronisation, recovery
// and scheduling outweigh the kernels.
const (
	thinNodes   = 16
	thinSeeds   = 8
	thinMTBF    = 800
	thinHorizon = 150
	// thinFireBy bounds the failure iterations a scenario seed may draw:
	// below the failure-free iteration counts of both matrices (about 100
	// and 115), so every drawn failure strikes before the solve converges.
	thinFireBy = 90
)

// campaignWL is thin-campaign (one cold cacheless esrp.RunCampaign per op)
// or, with cached set, cached-campaign (the same grid with a cache restored
// from a snapshot holding 7 of every 8 seeds, plus a machine-sweep axis).
type campaignWL struct {
	seed    int64
	cached  bool
	workDir string

	systems   []*system
	seeds     []int64
	grid      esrp.CampaignGrid // the op's grid, without a cache
	ref       *esrp.CampaignReport
	refDigest [32]byte

	snapshot, work string // cached-campaign cache directories
}

// machines is cached-campaign's machine axis: the recording model, a 4×
// latency network and a 2× bandwidth network.
func machines() []esrp.CampaignMachine {
	base := esrp.DefaultCostModel()
	lat, bw := base, base
	lat.Latency *= 4
	bw.BytePeriod *= 0.5
	return []esrp.CampaignMachine{{Name: "base", Model: base}, {Name: "latency-x4", Model: lat}, {Name: "byte-period-x0.5", Model: bw}}
}

func campaignSystems(seed int64) []*system {
	return []*system{
		newSystem(seed, "poisson48", esrp.Poisson2D(48, 48)),
		newSystem(seed, "emilia16", esrp.EmiliaLike(16, 16, 16, matrixSeed("emilia16"))),
	}
}

// scenarioSeeds draws the grid's scenario seeds from the workload seed:
// each is the first unused candidate whose timeline on the grid's cluster
// holds exactly the expected number of failures (nodes × horizon / MTBF),
// all striking by iteration thinFireBy. The seed then moves which nodes
// fail and when, but not how many take effect; with free draws the 8
// timelines' total event count alone swings an op's work by about ±20 %
// between workload seeds.
func scenarioSeeds(seed int64, sc esrp.FailureScenario) ([]int64, error) {
	want := int(float64(thinNodes) * float64(thinHorizon) / thinMTBF)
	var seeds []int64
	for cand := 0; len(seeds) < thinSeeds; cand++ {
		sc.Nodes, sc.Seed = thinNodes, sub(seed, fmt.Sprint("campaign-", cand))
		events, err := esrp.CompileScenario(sc)
		if err != nil {
			return nil, err
		}
		if len(events) == want && events[want-1].Iteration <= thinFireBy {
			seeds = append(seeds, sc.Seed)
		}
	}
	return seeds, nil
}

func (c *campaignWL) setup() error {
	c.systems = campaignSystems(c.seed)
	scenario := esrp.FailureScenario{Model: esrp.ScenarioExponential, MTBF: thinMTBF, Horizon: thinHorizon}
	var err error
	if c.seeds, err = scenarioSeeds(c.seed, scenario); err != nil {
		return err
	}
	var mats []esrp.CampaignMatrix
	for _, s := range c.systems {
		mats = append(mats, esrp.CampaignMatrix{Name: s.name, A: s.a, B: s.b})
	}
	c.grid = esrp.CampaignGrid{
		Matrices:   mats,
		Nodes:      []int{thinNodes},
		Strategies: []esrp.Strategy{esrp.StrategyESR, esrp.StrategyESRP, esrp.StrategyIMCR},
		Ts:         []int{10, 20},
		Phis:       []int{1, 2},
		Seeds:      c.seeds,
		Scenario:   scenario,
		Workers:    runtime.GOMAXPROCS(0),
	}
	if c.cached {
		c.grid.Machines = machines()
	}
	// The reference every op's report must match: a cacheless live sweep.
	ref, err := esrp.RunCampaign(c.grid)
	if err != nil {
		return err
	}
	if err := cellsOK(ref); err != nil {
		return fmt.Errorf("reference sweep: %w", err)
	}
	c.ref = ref
	if c.refDigest, err = digest(ref); err != nil {
		return err
	}
	if !c.cached {
		return nil
	}
	// Populate the snapshot for the first 7 of the 8 seeds.
	c.snapshot, c.work = filepath.Join(c.workDir, "snapshot"), filepath.Join(c.workDir, "work")
	cache, note, err := esrp.OpenCampaignCache(c.snapshot, esrp.CacheMismatchRefresh)
	if err != nil {
		return err
	}
	if note != "" {
		return fmt.Errorf("fresh cache directory reported %q", note)
	}
	pop := c.grid
	pop.Machines = nil
	pop.Seeds = c.seeds[:thinSeeds-1]
	pop.Cache = cache
	rep, err := esrp.RunCampaign(pop)
	if err != nil {
		return err
	}
	return cellsOK(rep)
}

// restore links the snapshot's entries into a fresh working cache
// directory. Linking instead of copying keeps each op from rewriting the
// snapshot's 27 MB through the page cache; it is safe because the cache
// replaces entries by rename and never writes into an existing file.
func (c *campaignWL) restore() error {
	if !c.cached {
		return nil
	}
	if err := os.RemoveAll(c.work); err != nil {
		return err
	}
	return filepath.WalkDir(c.snapshot, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(c.snapshot, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(c.work, rel), 0o755)
		}
		return os.Link(path, filepath.Join(c.work, rel))
	})
}

func (c *campaignWL) op(t *tracer) (any, error) {
	return c.runGrid(t, c.grid)
}

// runGrid runs g as one op: open the restored cache (cached-campaign), then
// RunCampaign.
func (c *campaignWL) runGrid(t *tracer, g esrp.CampaignGrid) (*esrp.CampaignReport, error) {
	if c.cached {
		sp := t.begin("ccache", "esrp.OpenCampaignCache")
		cache, _, err := esrp.OpenCampaignCache(c.work, esrp.CacheMismatchRefresh)
		t.end(sp)
		if err != nil {
			return nil, err
		}
		g.Cache = cache
	}
	if t != nil {
		g.HostObs = esrp.NewHostRecorder()
	}
	sp := t.begin("campaign", "esrp.RunCampaign")
	rep, err := esrp.RunCampaign(g)
	t.end(sp)
	if t != nil {
		t.addCampaign(g.HostObs, thinNodes)
	}
	return rep, err
}

func (c *campaignWL) check(out any) error {
	rep := out.(*esrp.CampaignReport)
	if err := cellsOK(rep); err != nil {
		return err
	}
	d, err := digest(rep)
	if err != nil {
		return err
	}
	if d != c.refDigest {
		return fmt.Errorf("report JSON digest %x differs from the cacheless reference sweep %x", d[:8], c.refDigest[:8])
	}
	return nil
}

// cellsOK fails on any cell or machine point that errored or did not converge.
func cellsOK(rep *esrp.CampaignReport) error {
	for i := range rep.Cells {
		cell := &rep.Cells[i]
		if cell.Err != "" {
			return fmt.Errorf("cell %d (%s %s T=%d φ=%d seed %d): %s", i, cell.Matrix, cell.Strategy, cell.T, cell.Phi, cell.Seed, cell.Err)
		}
		if !cell.Converged {
			return fmt.Errorf("cell %d (%s %s T=%d φ=%d seed %d) did not converge", i, cell.Matrix, cell.Strategy, cell.T, cell.Phi, cell.Seed)
		}
	}
	for _, mc := range rep.MachineCells {
		if mc.Err != "" {
			return fmt.Errorf("cell %d machine %d: %s", mc.Cell, mc.Machine, mc.Err)
		}
	}
	return nil
}

// digest is the SHA-256 of the report's JSON export.
func digest(rep *esrp.CampaignReport) ([32]byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(buf.Bytes()), nil
}

func (c *campaignWL) cellsPerOp() int { return len(c.ref.Cells) }

// solvedInOp reports whether an op solves cell i live: every cell on
// thin-campaign, only the last seed's cells on cached-campaign.
func (c *campaignWL) solvedInOp(i int) bool {
	return !c.cached || c.ref.Cells[i].Seed == c.seeds[thinSeeds-1]
}

func (c *campaignWL) system(name string) *system {
	for _, s := range c.systems {
		if s.name == name {
			return s
		}
	}
	panic("unknown campaign matrix " + name) // cells only name the grid's matrices
}

func (c *campaignWL) counts() kernelCounts {
	var k kernelCounts
	for i, cell := range c.ref.Cells {
		if c.solvedInOp(i) {
			k.add(c.system(cell.Matrix).a, cell.TotalSteps)
		}
	}
	return k
}

func (c *campaignWL) sizes() map[string]any {
	var mats []map[string]any
	for _, s := range c.systems {
		mats = append(mats, map[string]any{"name": s.name, "rows": s.a.Rows, "nnz": s.a.NNZ()})
	}
	recoveries, solved, steps := 0, 0, 0
	for i, cell := range c.ref.Cells {
		recoveries += len(cell.Recoveries)
		steps += cell.TotalSteps
		if c.solvedInOp(i) {
			solved++
		}
	}
	m := map[string]any{
		"matrices": mats, "nodes": thinNodes, "cells": len(c.ref.Cells), "seeds": len(c.seeds),
		"recoveries": recoveries, "total_steps": steps, "workers": c.grid.Workers, "cells_solved_per_op": solved,
	}
	if c.cached {
		m["machine_points"] = len(c.grid.Machines)
		m["cache_entries"] = len(c.ref.Cells) - solved
	}
	return m
}

func (c *campaignWL) cleanup() {
	if c.workDir != "" {
		os.RemoveAll(c.workDir)
	}
}

func (c *campaignWL) layers(l *layerRun) error {
	l.genProbe(func() { campaignSystems(c.seed) })
	if err := l.kernelProbes(c.systems, thinNodes, []int{0, 1, 2}); err != nil {
		return err
	}
	if err := l.clusterProbes(thinNodes); err != nil {
		return err
	}

	// The serial set: the first seed's cells, each solved alone through
	// Solve with the Prepared context the campaign would share.
	type ctxKey struct {
		sys *system
		phi int
	}
	preps := map[ctxKey]*esrp.Prepared{}
	var cases []solveCase
	var contexts []esrp.Config
	for _, cell := range c.ref.Cells {
		if cell.Seed != c.seeds[0] {
			continue
		}
		st, err := esrp.ParseStrategy(cell.Strategy)
		if err != nil {
			return err
		}
		sys := c.system(cell.Matrix)
		cfg := esrp.Config{A: sys.a, B: sys.b, Nodes: cell.Nodes, Strategy: st, T: cell.T, Phi: cell.Phi, Failures: cell.Events, Rtol: 1e-8}
		key := ctxKey{sys, cell.Phi}
		if st == esrp.StrategyIMCR {
			key.phi = 0 // IMCR runs on the plain plan
		}
		if preps[key] == nil {
			ctx := cfg
			ctx.Failures = nil
			if preps[key], err = esrp.Prepare(ctx); err != nil {
				return err
			}
			contexts = append(contexts, ctx)
		}
		cfg.Prepared = preps[key]
		want := cell
		cases = append(cases, solveCase{
			label: fmt.Sprintf("%s/%s/T%d/phi%d", cell.Matrix, cell.Strategy, cell.T, cell.Phi),
			sys:   sys, cfg: cfg, seed: cell.Seed,
			check: func(r *esrp.Result) error {
				if r.SimTime != want.SimTime || r.Iterations != want.Iterations || r.TotalSteps != want.TotalSteps || r.BytesSent != want.BytesSent {
					return fmt.Errorf("solve differs from the campaign cell")
				}
				return nil
			},
		})
	}
	if err := l.solverProbes(cases, contexts); err != nil {
		return err
	}
	iters, steps := 0, 0
	for i, cell := range c.ref.Cells {
		if c.solvedInOp(i) {
			iters += cell.Iterations
			steps += cell.TotalSteps
		}
	}
	l.set("core.useful_step_share", float64(iters)/float64(steps))

	if err := l.campaignProbe("op", func(workers int) (int, error) {
		if err := c.restore(); err != nil {
			return 0, err
		}
		g := c.grid
		g.Workers = workers
		rep, err := c.runGrid(nil, g)
		if err == nil {
			err = c.check(rep)
		}
		if err != nil {
			return 0, err
		}
		return len(rep.Cells), nil
	}); err != nil {
		return err
	}
	if c.cached {
		cells := float64(l.t.cells)
		l.set("ccache.hit_share", float64(l.t.cache.ResultHits+l.t.cache.ScheduleHits)/cells)
		l.set("ccache.read_bytes_per_cell", float64(l.t.cache.BytesRead)/cells)
		l.set("ccache.write_bytes_per_cell", float64(l.t.cache.BytesWritten)/cells)
	}
	return nil
}
