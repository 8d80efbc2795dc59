package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pds/internal/obs"
)

// TestTraceExportSmoke writes the quick sweep's span tree the way
// `pdsbench -trace` does and asserts the Perfetto export parses as JSON
// and every span's parent id resolves within the file.
func TestTraceExportSmoke(t *testing.T) {
	_, reg := quickSweep(t)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, reg); err != nil {
		t.Fatalf("writeTrace: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents     []obs.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(file.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	ids := map[string]bool{}
	var spans, metadata int
	for _, ev := range file.TraceEvents {
		switch ev.Phase {
		case "M":
			metadata++
		case "X", "i":
			spans++
			ids[ev.Args["id"]] = true
		default:
			t.Errorf("unexpected event phase %q", ev.Phase)
		}
	}
	if spans == 0 || metadata == 0 {
		t.Fatalf("spans=%d metadata=%d, want both > 0", spans, metadata)
	}
	for _, ev := range file.TraceEvents {
		if ev.Phase != "X" && ev.Phase != "i" {
			continue
		}
		if p := ev.Args["parent"]; p != "" && !ids[p] {
			t.Errorf("span %q parent %s unresolved within the file", ev.Name, p)
		}
	}
	// The protocol roots of E6's three sub-runs must be present.
	want := map[string]bool{"gquery/secure-agg": false, "gquery/noise": false, "gquery/histogram": false}
	for _, ev := range file.TraceEvents {
		if _, ok := want[ev.Name]; ok && ev.Phase != "M" {
			want[ev.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("no %s root span in trace", name)
		}
	}
}
