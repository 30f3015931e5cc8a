package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json's metric lists from the program's")

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workDef  `json:"workloads"`
	EndToEnd   []e2eDef   `json:"end_to_end"`
	PerLayer   []layerDef `json:"per_layer"`
}

type workDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestBenchmarkJSON pins BENCHMARK.json's workloads and metric lists to
// the program's, so every run prints exactly the declared metrics.
func TestBenchmarkJSON(t *testing.T) {
	const path = "../BENCHMARK.json"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	var e2e []e2eDef
	for _, d := range endToEndMetrics() {
		e2e = append(e2e, e2eDef{d.name, d.unit, d.better, d.bound})
	}
	var pl []layerDef
	for _, d := range perLayerMetrics() {
		pl = append(pl, layerDef{d.name, d.unit, d.better})
	}
	if *update {
		f.EndToEnd, f.PerLayer = e2e, pl
		out, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, _ := json.Marshal([]any{f.EndToEnd, f.PerLayer})
	want, _ := json.Marshal([]any{e2e, pl})
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json metric lists differ from the program's; run go test -run TestBenchmarkJSON -update")
	}
	names := map[string]bool{}
	for _, w := range f.Workloads {
		names[w.Name] = true
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
	for n := range workloads {
		if !names[n] {
			t.Errorf("workload %q missing from BENCHMARK.json", n)
		}
	}
}

// TestMetricNames checks the name grammar, uniqueness and the list
// limits of both metric lists.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	e2e, pl := endToEndMetrics(), perLayerMetrics()
	if len(e2e) < 1 || len(e2e) > 16 || len(pl) < 1 || len(pl) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics", len(e2e), len(pl))
	}
	hasSetup := false
	for _, d := range append(e2e, pl...) {
		if !validName(d.name) {
			t.Errorf("bad metric name %q", d.name)
		}
		if seen[d.name] {
			t.Errorf("duplicate metric %q", d.name)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("%s: better %q", d.name, d.better)
		}
		if d.bound > 0.25 {
			t.Errorf("%s: bound %g above 0.25", d.name, d.bound)
		}
		if d.name == "setup_s" {
			hasSetup = d.unit == "s" && d.better == "lower"
		}
	}
	if !hasSetup {
		t.Error("setup_s missing or not seconds/lower")
	}
	for w := range workloads {
		if !validName(w) {
			t.Errorf("bad workload name %q", w)
		}
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"setup_s", "kernel.call.busy_ms", "dist.lb.p99_cycles", "kv-rpc", "0x"} {
		if !validName(ok) {
			t.Errorf("%q rejected", ok)
		}
	}
	for _, bad := range []string{"", ".lead", "_lead", "has space", "semi;colon", "slash/", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
}
