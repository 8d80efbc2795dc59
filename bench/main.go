// Command bench is the repository's one benchmark: seven named
// workloads, two clocks (the paper's virtual cost and the Go process's
// wall time and allocations), per-layer probes and traces. It drives the
// system only through public functions of the internal packages, owns
// its seeded inputs, checks every output, and prints every metric by
// name with its unit. See README.md in this directory.
//
//	go run ./bench                      every workload, both passes
//	go run ./bench -list                the workloads and why each exists
//	go run ./bench -workload serve-churn -seed 7 -json out.json -trace traces
//	go run ./bench -compare a.json b.json
//
// With -workload, the last line of standard output is one JSON object
// {correct, attempted, failed, metrics} — the contract BENCHMARK.json
// states. -trace 0 runs the measured pass only (end-to-end metrics),
// -trace 1 the traced pass only (per-layer metrics); any other value is a
// directory that receives trace-<workload>.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the workloads and exit")
	name := fs.String("workload", "", "run only this workload and end with the contract's JSON line")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "time-box each workload's measured pass (0: the nominal episode counts)")
	trace := fs.String("trace", "", "0: measured pass only; 1: traced pass only; DIR: both, and write traces there")
	jsonOut := fs.String("json", "", "write the full report to this file")
	compare := fs.Bool("compare", false, "compare two reports: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare a.json b.json")
			return 2
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	all := workloads(false)
	if *list {
		for _, w := range all {
			mark := " "
			if slices.Contains(gated, w.Name()) {
				mark = "*" // listed in BENCHMARK.json
			}
			fmt.Printf("%s %-15s %s\n", mark, w.Name(), w.Why())
		}
		return 0
	}
	opt := options{seed: *seed, seconds: *seconds, measured: true, traced: true}
	switch *trace {
	case "":
	case "0":
		opt.traced = false
	case "1":
		opt.measured = false
	default:
		opt.traceDir = *trace
	}
	selected := all
	if *name != "" {
		selected = nil
		for _, w := range all {
			if w.Name() == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *name)
			return 2
		}
	}

	// Every hot path under test is single-threaded; one P takes the
	// scheduler's placement noise out of the wall clock.
	runtime.GOMAXPROCS(1)
	rep := &report{Machine: thisMachine(), Seed: *seed, Seconds: *seconds}
	ses := &session{opt: opt}
	ok := true
	for _, w := range selected {
		res, err := ses.runWorkload(w)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		rep.Workloads = append(rep.Workloads, res)
		printWorkload(res)
		ok = ok && res.Correct
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "bench: correctness check failed")
		return 1
	}
	if *name != "" {
		printContractLine(rep.Workloads[0], opt)
	}
	return 0
}

// printWorkload prints one workload's metrics by name, with unit and
// sample count.
func printWorkload(r *workloadResult) {
	fmt.Printf("== %s  episodes=%d attempted=%d failed=%d correct=%v input_digest=%s\n",
		r.Name, r.Episodes, r.Attempted, r.Failed, r.Correct, r.InputDigest)
	for _, v := range r.Violations {
		fmt.Printf("   VIOLATION: %s\n", v)
	}
	printSet := func(defs []metricDef, vals map[string]value) {
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("   %-40s %16.6g %-6s n=%d", d.Name, v.Value, v.Unit, v.N)
			if v.Q1 != 0 || v.Q3 != 0 {
				line += fmt.Sprintf("  q1=%.6g q3=%.6g", v.Q1, v.Q3)
			}
			fmt.Println(line)
		}
	}
	printSet(endToEnd, r.EndToEnd)
	printSet(perLayer, r.PerLayer)
}

// printContractLine ends the output with the one JSON object the
// benchmark contract reads: the end-to-end metrics of a measured pass,
// the per-layer metrics of a traced one.
func printContractLine(r *workloadResult, opt options) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{}
	add := func(vals map[string]value) {
		for name, v := range vals {
			metrics[name] = metric{Value: v.Value, Unit: v.Unit}
		}
	}
	if opt.measured {
		add(r.EndToEnd)
	}
	if opt.traced {
		add(r.PerLayer)
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	fmt.Println(string(b))
}
