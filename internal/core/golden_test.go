package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// -update-golden regenerates testdata/golden_trajectories.json from the
// current solver. Run it ONLY when a change is meant to alter trajectories;
// performance work must leave the file untouched.
var updateGolden = flag.Bool("update-golden", false, "regenerate the golden trajectory file")

// goldenRecord pins everything a fixed-seed solve must reproduce bit for
// bit: the residual trajectory (as raw float64 bits, so == comparisons catch
// single-ulp drift), a digest of the converged iterand, the simulated clock,
// the traffic counters, and the recovery event log.
type goldenRecord struct {
	Iterations   int             `json:"iterations"`
	TotalSteps   int             `json:"total_steps"`
	Converged    bool            `json:"converged"`
	ResidualBits []string        `json:"residual_bits"`
	XDigest      string          `json:"x_digest"`
	SimTimeBits  string          `json:"sim_time_bits"`
	BytesSent    int64           `json:"bytes_sent"`
	MsgsSent     int64           `json:"msgs_sent"`
	HaloBytes    int64           `json:"halo_bytes"`
	MaxNodeBytes int64           `json:"max_node_bytes"`
	Events       []RecoveryEvent `json:"events"`
}

func goldenPath() string { return filepath.Join("testdata", "golden_trajectories.json") }

func recordOf(res *Result) goldenRecord {
	bits := make([]string, len(res.Residuals))
	for i, v := range res.Residuals {
		bits[i] = fmt.Sprintf("%016x", math.Float64bits(v))
	}
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.X {
		u := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
	ev := res.Events
	if ev == nil {
		ev = []RecoveryEvent{}
	}
	return goldenRecord{
		Iterations:   res.Iterations,
		TotalSteps:   res.TotalSteps,
		Converged:    res.Converged,
		ResidualBits: bits,
		XDigest:      fmt.Sprintf("%016x", h.Sum64()),
		SimTimeBits:  fmt.Sprintf("%016x", math.Float64bits(res.SimTime)),
		BytesSent:    res.BytesSent,
		MsgsSent:     res.MsgsSent,
		HaloBytes:    res.HaloBytes,
		MaxNodeBytes: res.MaxNodeBytes,
		Events:       ev,
	}
}

// pipelinedScenarios covers the pipelined solver's recovery paths: the
// local restart, an IMCR rollback, and a two-event IMCR timeline whose
// second failure must restore from the buddy that the first one replaced,
// with a detection charge on every event.
func pipelinedScenarios(t *testing.T) map[string]Config {
	t.Helper()
	mk := func(mut func(*Config)) Config {
		cfg := baseConfig(t)
		cfg.RecordResiduals = true
		mut(&cfg)
		return cfg
	}
	return map[string]Config{
		"pipelined-none-fail": mk(func(cfg *Config) {
			cfg.Failure = &FailureSpec{Iteration: 30, Ranks: []int{3}}
		}),
		"pipelined-imcr-fail": mk(func(cfg *Config) {
			cfg.Strategy = StrategyIMCR
			cfg.T = 10
			cfg.Phi = 1
			cfg.Failure = &FailureSpec{Iteration: 33, Ranks: []int{4}}
		}),
		"pipelined-imcr-multi-detect": mk(func(cfg *Config) {
			cfg.Strategy = StrategyIMCR
			cfg.T = 10
			cfg.Phi = 1
			cfg.DetectionTime = 2e-5
			cfg.Failures = []FailureSpec{
				{Iteration: 25, Ranks: []int{2}},
				{Iteration: 44, Ranks: []int{1}}, // rank 1's buddy is rank 2
			}
		}),
	}
}

// TestGoldenTrajectories pins the residual trajectories, iterand digest,
// simulated clock, traffic counters and Result.Events of every
// strategy/recovery path against the committed golden file. Any execution
// rewrite (collectives, kernels, buffer reuse) must keep these byte-
// identical; only deliberate numerical changes may regenerate the file.
func TestGoldenTrajectories(t *testing.T) {
	type scenario struct {
		cfg   Config
		solve func(Config) (*Result, error)
	}
	scenarios := make(map[string]scenario)
	for name, cfg := range localPathScenarios(t) {
		scenarios[name] = scenario{cfg, Solve}
	}
	for name, cfg := range pipelinedScenarios(t) {
		scenarios[name] = scenario{cfg, SolvePipelined}
	}
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)

	got := make(map[string]goldenRecord, len(names))
	for _, name := range names {
		sc := scenarios[name]
		res, err := sc.solve(sc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = recordOf(res)
	}

	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath(), append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d scenarios)", goldenPath(), len(got))
		return
	}

	data, err := os.ReadFile(goldenPath())
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden file has %d scenarios, test produced %d", len(want), len(got))
	}
	for _, name := range names {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: not in golden file", name)
			continue
		}
		g := got[name]
		if g.Iterations != w.Iterations || g.TotalSteps != w.TotalSteps || g.Converged != w.Converged {
			t.Errorf("%s: iterations (%d,%d,%v) != golden (%d,%d,%v)",
				name, g.Iterations, g.TotalSteps, g.Converged, w.Iterations, w.TotalSteps, w.Converged)
		}
		if len(g.ResidualBits) != len(w.ResidualBits) {
			t.Errorf("%s: residual log length %d != golden %d", name, len(g.ResidualBits), len(w.ResidualBits))
		} else {
			for i := range g.ResidualBits {
				if g.ResidualBits[i] != w.ResidualBits[i] {
					t.Errorf("%s: residual %d bits %s != golden %s (trajectory changed)",
						name, i, g.ResidualBits[i], w.ResidualBits[i])
					break
				}
			}
		}
		if g.XDigest != w.XDigest {
			t.Errorf("%s: iterand digest %s != golden %s", name, g.XDigest, w.XDigest)
		}
		if g.SimTimeBits != w.SimTimeBits {
			t.Errorf("%s: simulated clock bits %s != golden %s (cost model drifted)", name, g.SimTimeBits, w.SimTimeBits)
		}
		if g.BytesSent != w.BytesSent || g.MsgsSent != w.MsgsSent || g.HaloBytes != w.HaloBytes {
			t.Errorf("%s: traffic (%d B, %d msgs, %d halo) != golden (%d, %d, %d)",
				name, g.BytesSent, g.MsgsSent, g.HaloBytes, w.BytesSent, w.MsgsSent, w.HaloBytes)
		}
		if g.MaxNodeBytes != w.MaxNodeBytes {
			t.Errorf("%s: max node bytes %d != golden %d", name, g.MaxNodeBytes, w.MaxNodeBytes)
		}
		if !reflect.DeepEqual(g.Events, w.Events) {
			t.Errorf("%s: recovery events %+v != golden %+v", name, g.Events, w.Events)
		}
	}
}
