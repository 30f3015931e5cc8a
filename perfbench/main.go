// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed host-time budget, checks every output,
// and prints every end-to-end metric (or, with -trace 1, every
// per-layer metric) as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// A run repeats passes of identical simulated work until the budget is
// spent: each pass sets the workload up from the seed, runs a fixed
// number of rounds, and checks its outputs. Host-time metrics pool or
// take medians across passes; simulated metrics come from the pass and
// must agree bit for bit across every pass of the run (the digest).
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload kv-rpc --seed 1 --seconds 20 --trace 0
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"atmosphere/internal/verify"
)

// Seeds recorded for claims: tune on defaultSeed, confirm a gain on
// heldOutSeed, which no tuning may use.
const (
	defaultSeed = 1
	heldOutSeed = 20261017
)

func main() {
	workload := flag.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := flag.Uint64("seed", defaultSeed, "workload seed (inputs are generated from it)")
	seconds := flag.Float64("seconds", 30, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 = traced run: report per-layer metrics")
	out := flag.String("out", "", "directory for the traced run's span file (none when empty)")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, trace int, out string) error {
	if _, ok := workloads[name]; !ok {
		return fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if err := checkWFNames(); err != nil {
		return err
	}
	// The simulation is single-goroutine; one P also keeps the
	// collector on the measured thread instead of on a second CPU
	// whose availability other tenants decide.
	runtime.GOMAXPROCS(1)

	res, err := measure(name, seed, seconds, trace == 1)
	if err != nil {
		return err
	}
	if err := res.writeText(os.Stdout); err != nil {
		return err
	}
	if trace == 1 && out != "" && res.tracer != nil {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
		if err := res.tracer.writeChrome(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Printf("spans: %s\n", path)
	}
	line, err := res.jsonLine(trace == 1)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// checkWFNames pins the static per-layer names to verify.WFChecks().
func checkWFNames() error {
	checks := verify.WFChecks()
	if len(checks) != numWF {
		return fmt.Errorf("verify.WFChecks() has %d entries, the benchmark names %d", len(checks), numWF)
	}
	for i, c := range checks {
		if c.Name != wfNames[i] {
			return fmt.Errorf("verify.WFChecks()[%d] is %q, the benchmark names %q", i, c.Name, wfNames[i])
		}
	}
	return nil
}
