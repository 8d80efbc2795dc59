package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of one workload × end-to-end metric.
const (
	verdictOK         = "ok"
	verdictImproved   = "improved"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// noisyWorkload is the one workload whose virtual clock does not repeat
// bit for bit: its fault decisions hash fresh IVs. Over the same episodes
// its otherwise exact metrics get these tolerances instead of equality.
const noisyWorkload = "gquery-lossy"

var noisyBounds = map[string]float64{
	"virt_p50_us": 0.02, "virt_p99_us": 0.02, "virt_mean_us": 0.02, "ok_frac": 0.005,
}

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// sameConditions refuses two reports that did not measure the same work the
// same way.
func sameConditions(a, b *report) error {
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d vs %d", a.Seed, b.Seed)
	case a.Machine.GOMAXPROCS != b.Machine.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", a.Machine.GOMAXPROCS, b.Machine.GOMAXPROCS)
	case a.Machine.GoVersion != b.Machine.GoVersion:
		return fmt.Errorf("Go versions differ: %s vs %s", a.Machine.GoVersion, b.Machine.GoVersion)
	}
	return nil
}

// judge compares one metric of the parent (a) and the change (b).
// exact selects equality; otherwise the verdict is on the medians against
// the metric's bound. A recorded spread wider than the bound makes the
// pair unresolved, unless the two quartile ranges are disjoint in the
// better direction. The spread of a median over n episodes is its
// quartile range over sqrt(n): episodes differ by their inputs, which both
// runs share, so the range itself overstates how far the median can move.
func judge(d metricDef, a, b value, exact bool) (verdict string, change float64) {
	if a.Value != 0 {
		change = (b.Value - a.Value) / math.Abs(a.Value)
	} else if b.Value != 0 {
		change = math.Inf(1)
	}
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	if exact {
		switch {
		case a.Value == b.Value:
			return verdictOK, change
		case worse > 0:
			return verdictRegressed, change
		default:
			return verdictImproved, change
		}
	}
	spread := func(v value) float64 {
		if v.Value == 0 {
			return 0
		}
		return (v.Q3 - v.Q1) / math.Abs(v.Value) / math.Sqrt(float64(max(v.N, 1)))
	}
	if math.Max(spread(a), spread(b)) > d.Bound {
		clear := b.Q3 < a.Q1
		if d.Better == "higher" {
			clear = b.Q1 > a.Q3
		}
		if clear && worse < 0 {
			return verdictImproved, change
		}
		return verdictUnresolved, change
	}
	switch {
	case worse > d.Bound:
		return verdictRegressed, change
	case worse < -d.Bound:
		return verdictImproved, change
	}
	return verdictOK, change
}

// compareReports prints one row per workload × end-to-end metric and
// reports whether any regressed.
func compareReports(w io.Writer, a, b *report) (regressed bool, err error) {
	if err := sameConditions(a, b); err != nil {
		return false, err
	}
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(w, "%-15s %-20s %16s %16s %9s  %s\n", "workload", "metric", "parent", "change", "delta", "verdict")
	for _, ra := range a.Workloads {
		rb, ok := byName[ra.Name]
		if !ok {
			continue
		}
		if ra.InputDigest != rb.InputDigest {
			return false, fmt.Errorf("%s: input digests differ: the two runs measured different inputs", ra.Name)
		}
		for _, d := range endToEnd {
			va, oka := ra.EndToEnd[d.Name]
			vb, okb := rb.EndToEnd[d.Name]
			if !oka || !okb {
				continue
			}
			// The virtual clock repeats exactly only over the same
			// episodes of a deterministic workload.
			exact := exactMetrics[d.Name] && ra.Episodes == rb.Episodes
			if exact && ra.Name == noisyWorkload {
				exact, d.Bound = false, noisyBounds[d.Name]
			}
			verdict, change := judge(d, va, vb, exact)
			if verdict == verdictRegressed {
				regressed = true
			}
			fmt.Fprintf(w, "%-15s %-20s %16.6g %16.6g %+8.2f%%  %s\n", ra.Name, d.Name, va.Value, vb.Value, 100*change, verdict)
		}
	}
	return regressed, nil
}

// compareFiles is the -compare command: exit code 0 when nothing
// regressed, 1 on a regression, 2 when the reports cannot be compared.
func compareFiles(w io.Writer, pathA, pathB string) int {
	regressed, err := func() (bool, error) {
		a, err := loadReport(pathA)
		if err != nil {
			return false, err
		}
		b, err := loadReport(pathB)
		if err != nil {
			return false, err
		}
		return compareReports(w, a, b)
	}()
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "bench: compare:", err)
		return 2
	case regressed:
		return 1
	}
	return 0
}
