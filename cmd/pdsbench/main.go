// Command pdsbench regenerates every experiment of the reproduction
// (E1–E18 and E20–E22 in DESIGN.md / EXPERIMENTS.md): the Part II
// embedded-database and search-engine cost comparisons, the Part III
// secure global computation protocols, PPDP, folder synchronization, the
// covert-adversary detection study, and the scaling, crash-recovery and
// hosting studies.
//
// Usage:
//
//	pdsbench                  # run every experiment
//	pdsbench -exp E1,E6       # run a subset
//	pdsbench -quick           # smaller sweeps (CI-friendly)
//	pdsbench -metrics m.json  # also dump the obs metrics snapshot ('-' = stdout)
//	pdsbench -trace t.json    # also dump the span tree as Perfetto JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"pds/internal/obs"
)

// experiment is one runnable study.
type experiment struct {
	id    string
	title string
	run   func(cfg config) error
}

// config carries global harness options.
type config struct {
	quick bool
	// obs collects metrics and spans across every experiment of the
	// invocation; nil when -metrics was not requested.
	obs *obs.Registry
}

var experiments = []experiment{
	{"E1", "Summary scan vs table scan (Bloom page summaries)", runE1},
	{"E2", "Index reorganization: sequential log vs B-tree-like", runE2},
	{"E3", "Embedded search engine: pipelined merge vs naive", runE3},
	{"E4", "Select-project-join via Tselect/Tjoin vs naive", runE4},
	{"E5", "Flash write pattern: log-only vs update-in-place", runE5},
	{"E6", "Global aggregation protocols (secure-agg / noise / histogram)", runE6},
	{"E7", "SMC toolkit and homomorphic primitives", runE7},
	{"E8", "Privacy-preserving publishing (k-anonymity, l-diversity)", runE8},
	{"E9", "Medical folder disconnected synchronization", runE9},
	{"E10", "Weakly-malicious SSI detection", runE10},
	{"E11", "RAM co-design ablation (extension)", runE11},
	{"E12", "Log-only key-value store (extension)", runE12},
	{"E13", "Time-series store (extension)", runE13},
	{"E14", "Data-mining toolkit applications: rules & clusters (extension)", runE14},
	{"E15", "Folk-IS delay-tolerant network (extension)", runE15},
	{"E16", "Spatio-temporal store (extension)", runE16},
	{"E17", "Design-choice ablations: Bloom bits, buckets, chunk size", runE17},
	{"E18", "Fault-tolerant Part III execution under injected faults (robustness)", runE18},
	{"E20", "Hierarchical fan-in scaling: flat vs tree critical path, bounded memory", runE20},
	{"E21", "Power-fail crash recovery: prefix battery and recovery cost", runE21},
	{"E22", "Multi-tenant hosting: admission control and SLOs under open-loop load", runE22},
}

func main() {
	expFlag := flag.String("exp", "all", "comma-separated experiment ids (e.g. E1,E6) or 'all'")
	quick := flag.Bool("quick", false, "run reduced sweeps")
	metrics := flag.String("metrics", "", "write the obs metrics snapshot as JSON to this file ('-' = stdout)")
	trace := flag.String("trace", "", "write the span tree as Chrome trace-event / Perfetto JSON to this file ('-' = stdout)")
	flag.Parse()

	want := map[string]bool{}
	if *expFlag != "all" {
		for _, id := range strings.Split(*expFlag, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	cfg := config{quick: *quick}
	if *metrics != "" || *trace != "" {
		cfg.obs = obs.NewRegistry()
	}
	ran := 0
	for _, e := range experiments {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		if err := e.print(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.id, err)
			os.Exit(1)
		}
		ran++
	}
	if ran == 0 {
		ids := make([]string, len(experiments))
		for i, e := range experiments {
			ids[i] = e.id
		}
		sort.Strings(ids)
		fmt.Fprintf(os.Stderr, "no experiment matched %q; available: %s\n", *expFlag, strings.Join(ids, ","))
		os.Exit(2)
	}
	if cfg.obs != nil {
		if *metrics != "" {
			if err := writeMetrics(*metrics, cfg.obs); err != nil {
				fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
				os.Exit(1)
			}
		}
		if *trace != "" {
			if err := writeTrace(*trace, cfg.obs); err != nil {
				fmt.Fprintf(os.Stderr, "trace: %v\n", err)
				os.Exit(1)
			}
		}
	}
}

// print runs the experiment and writes its tables to stdout under a
// header line, followed by a blank line.
func (e experiment) print(cfg config) error {
	fmt.Printf("=== %s: %s ===\n", e.id, e.title)
	if err := e.run(cfg); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// writeMetrics dumps the registry snapshot as JSON to path ('-' = stdout).
func writeMetrics(path string, reg *obs.Registry) error {
	data, err := reg.Snapshot().JSON()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeTrace dumps the registry's span tree as Chrome trace-event /
// Perfetto JSON to path ('-' = stdout).
func writeTrace(path string, reg *obs.Registry) error {
	data, err := reg.Snapshot().PerfettoJSON()
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
