package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pds/internal/obs"
)

// TestMetricsSnapshotSmoke writes the quick sweep's registry the way
// `pdsbench -metrics` does and asserts the JSON parses and covers the
// subsystem families the flag promises: netsim, gquery, flash, and embdb.
func TestMetricsSnapshotSmoke(t *testing.T) {
	_, reg := quickSweep(t)
	path := filepath.Join(t.TempDir(), "metrics.json")
	if err := writeMetrics(path, reg); err != nil {
		t.Fatalf("writeMetrics: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot does not parse: %v", err)
	}
	if len(snap.Counters) == 0 || len(snap.Spans) == 0 {
		t.Fatalf("snapshot empty: %d counters, %d spans", len(snap.Counters), len(snap.Spans))
	}
	for _, family := range []string{"netsim_", "gquery_", "flash_", "embdb_"} {
		found := false
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, family) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* counters in snapshot", family)
		}
	}
}
