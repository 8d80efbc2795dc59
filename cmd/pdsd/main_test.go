package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pds/internal/scenario"
)

// buildOnce compiles the pdsd binary once per test run; every e2e test
// execs the real binary, so the processes under test are exactly what an
// operator runs.
var buildOnce = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "pdsd-e2e")
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, "pdsd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", &exec.Error{Name: string(out), Err: err}
	}
	return bin, nil
})

func pdsdBin(t *testing.T) string {
	t.Helper()
	bin, err := buildOnce()
	if err != nil {
		t.Fatalf("build pdsd: %v", err)
	}
	return bin
}

func TestMain(m *testing.M) {
	code := m.Run()
	if bin, err := buildOnce(); err == nil {
		os.RemoveAll(filepath.Dir(bin))
	}
	os.Exit(code)
}

func TestList(t *testing.T) {
	out, err := exec.Command(pdsdBin(t), "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("pdsd -list: %v\n%s", err, out)
	}
	for _, p := range scenario.Plans() {
		if !strings.Contains(string(out), p.Name) {
			t.Fatalf("-list missing plan %q:\n%s", p.Name, out)
		}
	}
}

// runPlan execs the coordinator for one named plan and parses its
// combined report.
func runPlan(t *testing.T, name, outDir string) (Output, []byte, error) {
	t.Helper()
	args := []string{"-plan", name}
	if outDir != "" {
		args = append(args, "-out", outDir)
	}
	cmd := exec.Command(pdsdBin(t), args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var out Output
	if jerr := json.Unmarshal(stdout, &out); jerr != nil {
		t.Fatalf("pdsd -plan %s produced no report (%v, exit %v):\n%s", name, jerr, err, stdout)
	}
	return out, stdout, err
}

// The clean plan end to end: separate OS processes per SSI node and
// querier, exact aggregate, obs snapshots from every node, trace exports
// on disk.
func TestMultiProcessClean(t *testing.T) {
	dir := t.TempDir()
	out, _, err := runPlan(t, "clean-64", dir)
	if err != nil {
		t.Fatalf("pdsd exit: %v (report %+v)", err, out)
	}
	if !out.OK || out.Report == nil || !out.Report.Exact || !out.Report.OK {
		t.Fatalf("plan not exact: %+v", out)
	}
	if out.Report.Mode != "multi-process" {
		t.Fatalf("mode = %q", out.Report.Mode)
	}
	if len(out.Report.SSI) != 1 || len(out.Report.SSI[0].Obs) == 0 {
		t.Fatalf("missing shard snapshot: %+v", out.Report.SSI)
	}
	if len(out.SSIProcs) == 0 {
		t.Fatalf("no SSI process exit reports collected: %+v", out)
	}
	for _, f := range []string{"report.json", "querier.obs.json", "querier.trace.json"} {
		b, err := os.ReadFile(filepath.Join(dir, f))
		if err != nil || len(b) == 0 {
			t.Fatalf("export %s: %v (%d bytes)", f, err, len(b))
		}
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			t.Fatalf("export %s is not JSON: %v", f, err)
		}
	}
}

// The restart plan end to end: the SSI process genuinely exits
// mid-collection, the coordinator respawns it, and the querier's
// checksum detects the state loss.
func TestMultiProcessRestart(t *testing.T) {
	out, _, err := runPlan(t, "restart-64", "")
	if err != nil {
		t.Fatalf("pdsd exit: %v (report %+v)", err, out)
	}
	if !out.OK || out.Report == nil || !out.Report.Detected {
		t.Fatalf("restart plan did not detect the loss: %+v", out)
	}
	if out.Respawns != 1 {
		t.Fatalf("respawns = %d, want 1", out.Respawns)
	}
	early := false
	for _, sr := range out.SSIProcs {
		if sr.ExitedEarly {
			early = true
		}
	}
	if !early {
		t.Fatalf("no SSI process reported the planned mid-collection exit: %+v", out.SSIProcs)
	}
}

// The sharded lossy plan end to end — skipped in -short mode; the
// in-process twin covers it there.
func TestMultiProcessLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process lossy plan skipped in -short mode")
	}
	out, _, err := runPlan(t, "lossy-256", "")
	if err != nil {
		t.Fatalf("pdsd exit: %v (report %+v)", err, out)
	}
	if !out.OK || out.Report == nil || !out.Report.Exact {
		t.Fatalf("lossy plan not exact: %+v", out)
	}
	if out.Report.Stats.Retransmits == 0 {
		t.Fatal("lossy plan reported no ARQ retransmits")
	}
	total := 0
	for _, sr := range out.Report.SSI {
		total += sr.Observations.Envelopes
	}
	if want := out.Report.Tokens * 4; total != want {
		t.Fatalf("shards ingested %d uploads, want %d", total, want)
	}
}

// The serve subcommand end to end: the real binary hosts a tenant
// population under open-loop load, reports SLOs and a decision digest,
// and two same-seed runs agree byte for byte on the digest.
func TestServeSubcommand(t *testing.T) {
	dir := t.TempDir()
	run := func(outDir string) Output {
		args := []string{"serve", "-tenants", "150", "-arrivals", "1200", "-rate", "4000", "-seed", "17"}
		if outDir != "" {
			args = append(args, "-out", outDir)
		}
		cmd := exec.Command(pdsdBin(t), args...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			t.Fatalf("pdsd serve: %v\n%s", err, stdout)
		}
		var out Output
		if err := json.Unmarshal(stdout, &out); err != nil {
			t.Fatalf("pdsd serve produced no report: %v\n%s", err, stdout)
		}
		return out
	}
	out1 := run(dir)
	if !out1.OK || out1.Report == nil || out1.Report.Hosting == nil {
		t.Fatalf("serve run: %+v", out1)
	}
	h := out1.Report.Hosting
	if h.Admitted == 0 || h.Denied == 0 || h.ACLDecisions != int64(h.Arrivals) {
		t.Fatalf("hosting report: %+v", h)
	}
	if h.RAMHighWater > h.RAMBudget {
		t.Fatalf("RAM high-water %d over budget %d", h.RAMHighWater, h.RAMBudget)
	}
	for _, f := range []string{"report.json", "querier.obs.json", "querier.trace.json"} {
		if b, err := os.ReadFile(filepath.Join(dir, f)); err != nil || len(b) == 0 {
			t.Fatalf("export %s: %v (%d bytes)", f, err, len(b))
		}
	}
	out2 := run("")
	if out2.Report.Hosting.DecisionDigest != h.DecisionDigest {
		t.Fatalf("same-seed serve runs disagree:\n  %s\n  %s",
			h.DecisionDigest, out2.Report.Hosting.DecisionDigest)
	}
}

// The named hosting plan through the coordinator path.
func TestServePlan(t *testing.T) {
	out, _, err := runPlan(t, "serve-quick", "")
	if err != nil {
		t.Fatalf("pdsd exit: %v (report %+v)", err, out)
	}
	if !out.OK || out.Report == nil || out.Report.Mode != "serve" || out.Report.Hosting == nil {
		t.Fatalf("serve plan: %+v", out)
	}
}

// The store plan end to end: one OS process per durable engine, each
// sweeping its crash battery.
func TestMultiProcessStoreSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process store sweep skipped in -short mode")
	}
	out, _, err := runPlan(t, "store-sweep", "")
	if err != nil {
		t.Fatalf("pdsd exit: %v (report %+v)", err, out)
	}
	if !out.OK || len(out.Stores) != 3 {
		t.Fatalf("store sweep: %+v", out)
	}
	for _, sr := range out.Stores {
		if !sr.OK || sr.Crashes == 0 {
			t.Fatalf("engine %s: %+v", sr.Kind, sr)
		}
	}
}
