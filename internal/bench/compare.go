package bench

import (
	"bufio"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Regression comparator against the frozen reference dump
// (bench_all_reference.txt, the seed's `atmo-bench` output). Only
// deterministic simulated quantities gate: cycle latencies, lost
// requests and simulated throughputs. The simulation is deterministic,
// so they gate exactly: a row passes only if its measured value,
// printed the way the dump prints it, is the dump's string. Host-
// dependent measurements (wall-clock seconds/ms of the obligation
// suite) and static quantities (line counts, ratios, paper-only
// history) are never compared — they move with the build machine, not
// the model.

// RefRow is one measured cell of the reference dump.
type RefRow struct {
	Value float64
	Text  string // the measured column as printed
	Unit  string
}

// Reference maps experiment id -> case name -> reference measurement.
type Reference map[string]map[string]RefRow

var (
	refHeader = regexp.MustCompile(`^=== ([A-Za-z0-9_]+): `)
	refSplit  = regexp.MustCompile(`\s{2,}`)
)

// ParseReference reads an `atmo-bench` text dump: `=== id: title ===`
// section headers followed by aligned columns (case, measured, paper,
// unit). Column-header, note, and prose lines are skipped.
func ParseReference(r io.Reader) (Reference, error) {
	ref := make(Reference)
	var cur map[string]RefRow
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimRight(sc.Text(), " \t")
		if m := refHeader.FindStringSubmatch(line); m != nil {
			cur = make(map[string]RefRow)
			ref[m[1]] = cur
			continue
		}
		if cur == nil || line == "" || strings.HasPrefix(line, "note:") {
			continue
		}
		fields := refSplit.Split(line, -1)
		if len(fields) < 4 || fields[0] == "case" {
			continue
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			continue
		}
		unit := strings.Fields(fields[len(fields)-1])
		if len(unit) == 0 {
			continue
		}
		cur[strings.TrimSpace(fields[0])] = RefRow{Value: v, Text: fields[1], Unit: unit[0]}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: reading reference: %w", err)
	}
	if len(ref) == 0 {
		return nil, fmt.Errorf("bench: reference holds no experiments")
	}
	return ref, nil
}

// Gate direction per unit, used to label a mismatch. Everything else
// is skipped.
var (
	lowerIsBetter  = map[string]bool{"cycles": true, "reqs": true}
	higherIsBetter = map[string]bool{"Mpps": true, "IOPS": true, "Kreq/s": true, "Mreq/s": true, "Mops/s": true}
)

// CompareToReference checks results against ref and returns one line
// per gated row whose printed value differs from the reference's,
// labelled worse or better by the unit's direction. Either way the
// simulation moved, and the reference must be re-pinned with the
// change that moved it. Unit mismatches, ungated units, and rows or
// experiments absent from the reference are skipped.
func CompareToReference(results []Result, ref Reference) []string {
	var mismatches []string
	for _, res := range results {
		refRows, ok := ref[res.ID]
		if !ok {
			continue
		}
		for _, row := range res.Rows {
			rr, ok := refRows[row.Name]
			if !ok {
				continue
			}
			uf := strings.Fields(row.Unit)
			if len(uf) == 0 || uf[0] != rr.Unit {
				continue
			}
			unit := uf[0]
			if !lowerIsBetter[unit] && !higherIsBetter[unit] {
				continue
			}
			got := formatVal(row.Value)
			if got == rr.Text {
				continue
			}
			dir := "worse"
			if lowerIsBetter[unit] == (row.Value < rr.Value) {
				dir = "better"
			}
			mismatches = append(mismatches, fmt.Sprintf(
				"%s/%s: %s %s vs reference %s (%s)", res.ID, row.Name, got, rr.Unit, rr.Text, dir))
		}
	}
	return mismatches
}
