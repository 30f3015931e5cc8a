package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

const refFixture = `=== table3: Latency of communication and typical system calls (cycles) ===
case                         measured           paper  unit
call/reply atmosphere            1000            1058  cycles
map a page atmosphere            2000            1984  cycles
note: measured on the simulated c220g5 cycle model

=== fig4: ixgbe forwarding ===
case              measured           paper  unit
64B linked           20.00           24.50  Mpps
host seconds          1.23               -  s

=== table2: Verification time ===
case              measured           paper  unit
proof lines           3668           20098  LoC
`

func fixtureRef(t *testing.T) Reference {
	t.Helper()
	ref, err := ParseReference(strings.NewReader(refFixture))
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

func TestParseReference(t *testing.T) {
	ref := fixtureRef(t)
	if len(ref) != 3 {
		t.Fatalf("parsed %d experiments, want 3", len(ref))
	}
	rr, ok := ref["table3"]["call/reply atmosphere"]
	if !ok || rr.Value != 1000 || rr.Unit != "cycles" {
		t.Fatalf("table3 row = %+v, ok=%v", rr, ok)
	}
	if rr := ref["fig4"]["64B linked"]; rr.Value != 20 || rr.Unit != "Mpps" {
		t.Fatalf("fig4 row = %+v", rr)
	}
	if _, ok := ref["table3"]["case"]; ok {
		t.Fatal("column header parsed as a data row")
	}
}

func TestParseReferenceRealFile(t *testing.T) {
	f, err := os.Open("../../bench_all_reference.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ref, err := ParseReference(f)
	if err != nil {
		t.Fatal(err)
	}
	rr, ok := ref["table3"]["call/reply atmosphere"]
	if !ok || rr.Unit != "cycles" || rr.Value == 0 {
		t.Fatalf("real reference missing table3 call/reply: %+v ok=%v", rr, ok)
	}
	for _, id := range []string{"fig4", "fig5", "fig6", "fig7", "ablation"} {
		if len(ref[id]) == 0 {
			t.Errorf("real reference missing experiment %s", id)
		}
	}
}

func TestCompareDirections(t *testing.T) {
	ref := fixtureRef(t)
	res := []Result{
		{ID: "table3", Rows: []Row{
			{Name: "call/reply atmosphere", Value: 1111, Unit: "cycles"}, // more latency: worse
			{Name: "map a page atmosphere", Value: 1500, Unit: "cycles"}, // less latency: better
		}},
		{ID: "fig4", Rows: []Row{
			{Name: "64B linked", Value: 17.0, Unit: "Mpps"}, // less throughput: worse
			{Name: "host seconds", Value: 99.0, Unit: "s"},  // host unit: skipped
		}},
		{ID: "table2", Rows: []Row{
			{Name: "proof lines", Value: 9999, Unit: "LoC"}, // static unit: skipped
		}},
		{ID: "degraded", Rows: []Row{
			{Name: "anything", Value: 1, Unit: "cycles"}, // not in reference: skipped
		}},
	}
	regs := CompareToReference(res, ref)
	if len(regs) != 3 {
		t.Fatalf("got %d mismatches, want 3:\n%s", len(regs), strings.Join(regs, "\n"))
	}
	for i, want := range []string{
		"table3/call/reply atmosphere: 1111 cycles vs reference 1000 (worse)",
		"table3/map a page atmosphere: 1500 cycles vs reference 2000 (better)",
		"fig4/64B linked: 17 Mpps vs reference 20.00 (worse)",
	} {
		if regs[i] != want {
			t.Errorf("mismatch %d = %q, want %q", i, regs[i], want)
		}
	}
}

// TestCompareExact: gated rows compare at the dump's printed precision
// — one cycle off a Table 3 row fails, a difference the dump cannot
// print passes.
func TestCompareExact(t *testing.T) {
	ref := fixtureRef(t)
	planted := []Result{{ID: "table3", Rows: []Row{
		{Name: "call/reply atmosphere", Value: 1001, Unit: "cycles"},
	}}}
	if regs := CompareToReference(planted, ref); len(regs) != 1 ||
		regs[0] != "table3/call/reply atmosphere: 1001 cycles vs reference 1000 (worse)" {
		t.Fatalf("planted +1-cycle row: %v", regs)
	}
	same := []Result{
		{ID: "table3", Rows: []Row{{Name: "call/reply atmosphere", Value: 1000, Unit: "cycles"}}},
		{ID: "fig4", Rows: []Row{{Name: "64B linked", Value: 20.004, Unit: "Mpps"}}}, // prints 20.00
		{ID: "fig4", Rows: []Row{{Name: "64B linked", Value: 19.996, Unit: "Mpps"}}}, // prints 20.00
	}
	if regs := CompareToReference(same, ref); len(regs) != 0 {
		t.Fatalf("rows equal at printed precision flagged: %v", regs)
	}
	zero := []Result{{ID: "table3", Rows: []Row{
		{Name: "call/reply atmosphere", Value: 0, Unit: "cycles"},
	}}}
	if regs := CompareToReference(zero, ref); len(regs) != 1 {
		t.Fatalf("a row that fell to zero passed: %v", regs)
	}
}

func TestWriteResultJSON(t *testing.T) {
	r := Result{
		ID: "table3", Title: "Latency",
		Rows:  []Row{{Name: "call/reply atmosphere", Value: 1060, Paper: 1058, Unit: "cycles"}},
		Notes: []string{"simulated"},
	}
	var a, b bytes.Buffer
	if err := WriteResultJSON(&a, r, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if err := WriteResultJSON(&b, r, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("JSON export is not byte-deterministic")
	}
	for _, want := range []string{
		`"id": "table3"`, `"case": "call/reply atmosphere"`,
		`"measured": 1060`, `"paper": 1058`, `"unit": "cycles"`,
		`"trace_hash": "00000000deadbeef"`,
	} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("JSON missing %s:\n%s", want, a.String())
		}
	}
	var c bytes.Buffer
	if err := WriteResultJSON(&c, r, 0); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(c.String(), "trace_hash") {
		t.Error("trace_hash emitted without a tracer")
	}
}

func TestCompareClusterUnits(t *testing.T) {
	// The cluster series' units are direction-aware: requests lost and
	// reconvergence cycles gate downward, throughput upward.
	ref, err := ParseReference(strings.NewReader(`=== cluster: chaos ===
case                      measured  paper  unit
chaos reconverge kill       180000      -  cycles
chaos requests lost             10      -  reqs
chaos throughput            800.00      -  Kreq/s
`))
	if err != nil {
		t.Fatal(err)
	}
	res := []Result{{ID: "cluster", Rows: []Row{
		{Name: "chaos reconverge kill", Value: 400000, Unit: "cycles"}, // slower reconvergence: worse
		{Name: "chaos requests lost", Value: 20, Unit: "reqs"},         // more lost requests: worse
		{Name: "chaos throughput", Value: 500, Unit: "Kreq/s"},         // lower throughput: worse
	}}}
	regs := CompareToReference(res, ref)
	if len(regs) != 3 {
		t.Fatalf("got %d mismatches, want 3:\n%s", len(regs), strings.Join(regs, "\n"))
	}
	for _, r := range regs {
		if !strings.HasSuffix(r, "(worse)") {
			t.Errorf("regression not labelled worse: %q", r)
		}
	}
	// An improvement also moves the simulation: it is flagged, as
	// better, so the reference is re-pinned with the change.
	improved := []Result{{ID: "cluster", Rows: []Row{
		{Name: "chaos reconverge kill", Value: 100000, Unit: "cycles"},
		{Name: "chaos requests lost", Value: 2, Unit: "reqs"},
		{Name: "chaos throughput", Value: 900, Unit: "Kreq/s"},
	}}}
	regs = CompareToReference(improved, ref)
	if len(regs) != 3 {
		t.Fatalf("got %d mismatches for improvements, want 3:\n%s", len(regs), strings.Join(regs, "\n"))
	}
	for _, r := range regs {
		if !strings.HasSuffix(r, "(better)") {
			t.Errorf("improvement not labelled better: %q", r)
		}
	}
}
