// Command perfbench is the repository benchmark. It runs one closed-loop
// workload against the esrp solver for a fixed wall-clock budget, checks
// every operation's output, and prints the end-to-end metrics; with
// --trace 1 it instead reports the per-layer metrics and a self-time
// decomposition of the operation. See README.md for the workloads, the
// metric definitions and the layer → end-to-end map.
//
//	perfbench --workload fat-solve --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"esrp"
)

// defaultSeed is the seed the committed reference values were taken at.
const defaultSeed = 1

// setupRepeats is how many times setup runs; setup_s is their median.
const setupRepeats = 3

// outDir receives the results file, the spans and the CPU profile, and
// (under work/) the cached-campaign cache directories. It is relative to the
// working directory, which is the root of the checkout.
var outDir = filepath.Join(".bench_build", "perfbench-out")

// workload is one closed-loop benchmark scenario.
type workload interface {
	// setup generates the inputs from the seed and computes every
	// reference the checks compare against.
	setup() error
	// restore prepares the next op outside the timed region.
	restore() error
	// op runs one timed operation.
	op(t *tracer) (any, error)
	// check validates one op's output against the references.
	check(out any) error
	// cellsPerOp is the number of grid cells (fat-solve: solves) one op completes.
	cellsPerOp() int
	// counts is the computed SpMV work of one op.
	counts() kernelCounts
	// sizes stamps the input sizes.
	sizes() map[string]any
	// layers runs the per-layer probes of the traced run.
	layers(l *layerRun) error
	cleanup()
}

func newWorkload(name string, seed int64, workDir string) (workload, error) {
	switch name {
	case "fat-solve":
		return &fatSolve{seed: seed}, nil
	case "thin-campaign":
		return &campaignWL{seed: seed}, nil
	case "cached-campaign":
		return &campaignWL{seed: seed, cached: true, workDir: workDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fat-solve, thin-campaign or cached-campaign)", name)
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "fat-solve", "workload: fat-solve, thin-campaign or cached-campaign")
	seed := flag.Int64("seed", defaultSeed, "workload seed; drives every input generator")
	seconds := flag.Int("seconds", 30, "measurement budget in wall seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	writeRef := flag.String("write-reference", "", "fat-solve: write the seed's reference values to this file and exit")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}

	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(outDir, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(workDir)

	if *writeRef != "" {
		return writeReference(*writeRef, *seed)
	}

	// Set up several times and keep the last instance; setup_s is the median.
	var w workload
	var setupTimes []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.cleanup()
		}
		if w, err = newWorkload(*name, *seed, filepath.Join(workDir, fmt.Sprint("setup", i))); err != nil {
			return err
		}
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		if *trace == 1 {
			break // the traced run reports no setup_s
		}
	}
	defer w.cleanup()

	prov := provenance(*name, *seed, *trace, nproc, w.sizes())
	fmt.Printf("perfbench %s  seed=%d  nproc=%d  GOMAXPROCS=%d  %s  rev=%s\n",
		*name, *seed, nproc, runtime.GOMAXPROCS(0), prov["go_version"], prov["vcs_revision"])
	fmt.Printf("inputs: %s\n", mustJSON(w.sizes()))

	budget := time.Duration(*seconds) * time.Second
	var res result
	var opSec []float64
	if *trace == 0 {
		s, err := measure(w, budget, nil)
		if err != nil {
			return err
		}
		res, opSec = endToEnd(w, s, setupTimes), s.opSec
	} else {
		if res, err = traced(w, *name, *seed, workDir, budget, prov); err != nil {
			return err
		}
	}
	prov["samples"] = res.Attempted
	if err := writeJSONFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", *name, *seed, *trace)),
		map[string]any{"provenance": prov, "result": res, "setup_s": setupTimes, "op_s": opSec}); err != nil {
		return err
	}
	fmt.Printf("# provenance %s\n", mustJSON(prov))
	fmt.Println(mustJSON(res))
	return nil
}

// provenance stamps every output with what produced it.
func provenance(name string, seed int64, trace, nproc int, sizes map[string]any) map[string]any {
	b := esrp.CurrentBuild()
	rev := b.Revision
	if rev == "" {
		rev = "unknown"
	}
	return map[string]any{
		"workload": name, "seed": seed, "trace": trace,
		"nproc": nproc, "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": b.GoVersion, "vcs_revision": rev, "vcs_modified": b.Modified,
		"inputs": sizes,
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are marshalled
	}
	return string(b)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
