// pdsd is the multi-process scenario runner of the asymmetric PDS
// architecture (DESIGN §12): it takes a named scenario plan and deploys
// it as real OS processes — one per SSI node, one querier — wired
// through the TCP switch, then collects every node's report and obs
// snapshot.
//
//	pdsd -list                      # show the plan catalog
//	pdsd -plan lossy-256            # run a plan, report JSON on stdout
//	pdsd -plan restart-64 -out DIR  # also write obs/trace exports to DIR
//	pdsd serve -tenants 1000        # multi-tenant hosting under open-loop load
//
// The coordinator re-execs its own binary for each role; the role flags
// (-role, -connect, -shard, ...) are internal plumbing, not a user
// surface. A restart plan's SSI process exits mid-collection by design;
// the coordinator respawns it once, empty, and the querier's checksum
// must detect the state loss.
//
// The serve subcommand is the hosting mode of DESIGN §13: one daemon
// multiplexing a whole tenant population — per-tenant chips, policies
// and quotas, admission-controlled scheduling, LRU eviction to flash —
// driven by a seeded open-loop arrival schedule, reporting per-class
// latency percentiles and the decision-stream digest two same-seed runs
// must agree on. Named hosting plans (serve-quick, serve-1k) run the
// same path with pinned configurations.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"pds/internal/obs"
	"pds/internal/scenario"
	"pds/internal/tenant"
	"pds/internal/transport"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		os.Exit(runServe(os.Args[2:]))
	}
	var (
		list      = flag.Bool("list", false, "list the scenario plan catalog and exit")
		planName  = flag.String("plan", "", "scenario plan to run")
		outDir    = flag.String("out", "", "directory for obs snapshot and trace exports (coordinator only)")
		role      = flag.String("role", "", "internal: child role (ssi, querier, store)")
		connect   = flag.String("connect", "", "internal: switch address to dial")
		shard     = flag.Int("shard", 0, "internal: SSI shard index")
		exitAfter = flag.Int("exit-after", 0, "internal: SSI exits after ingesting this many uploads (0 = never)")
		kind      = flag.String("kind", "", "internal: durable engine kind for the store role")
		stride    = flag.Int("stride", 7, "internal: crash-sweep stride for the store role")
		httpAddr  = flag.String("http", "", "coordinator: serve fleet telemetry over HTTP at this address")
		linger    = flag.Duration("linger", 0, "coordinator: keep the HTTP endpoint up this long after the run")
	)
	flag.Parse()

	if *list {
		for _, p := range scenario.Plans() {
			fmt.Printf("%-12s %s\n", p.Name, p.Description)
		}
		return
	}
	if *role == "store" {
		os.Exit(runStore(*kind, *stride))
	}
	if *planName == "" {
		fmt.Fprintln(os.Stderr, "pdsd: -plan required (see -list)")
		os.Exit(2)
	}
	p, ok := scenario.ByName(*planName)
	if !ok {
		fmt.Fprintf(os.Stderr, "pdsd: unknown plan %q (see -list)\n", *planName)
		os.Exit(2)
	}
	switch *role {
	case "":
		os.Exit(coordinate(p, *outDir, *httpAddr, *linger))
	case "ssi":
		os.Exit(runSSI(*connect, p, *shard, *exitAfter))
	case "querier":
		os.Exit(runQuerier(*connect, p))
	default:
		fmt.Fprintf(os.Stderr, "pdsd: unknown role %q\n", *role)
		os.Exit(2)
	}
}

// --- child roles ---

func runSSI(addr string, p scenario.Plan, shard, exitAfter int) int {
	conn, err := transport.Dial(addr, fmt.Sprintf("ssinode-%d", shard))
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd ssi %d: %v\n", shard, err)
		return 1
	}
	defer conn.Close()
	rep, err := scenario.ServeSSI(conn, shard, p, exitAfter)
	json.NewEncoder(os.Stdout).Encode(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd ssi %d: %v\n", shard, err)
		return 1
	}
	return 0
}

func runQuerier(addr string, p scenario.Plan) int {
	conn, err := transport.Dial(addr, "querier")
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd querier: %v\n", err)
		return 1
	}
	defer conn.Close()
	rep, err := scenario.RunQuerier(conn, p)
	json.NewEncoder(os.Stdout).Encode(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd querier: %v\n", err)
		return 1
	}
	if !rep.OK {
		return 1
	}
	return 0
}

func runStore(kind string, stride int) int {
	rep := scenario.RunStoreSweep(kind, stride)
	json.NewEncoder(os.Stdout).Encode(rep)
	if !rep.OK {
		return 1
	}
	return 0
}

// --- coordinator ---

// child is one spawned role process.
type child struct {
	cmd  *exec.Cmd
	out  *bytes.Buffer
	done chan error
}

func start(self string, args ...string) (*child, error) {
	c := &child{cmd: exec.Command(self, args...), out: &bytes.Buffer{}, done: make(chan error, 1)}
	c.cmd.Stdout = c.out
	c.cmd.Stderr = os.Stderr
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() { c.done <- c.cmd.Wait() }()
	return c, nil
}

// reap waits for a child with a deadline, killing it on overrun.
func (c *child) reap(d time.Duration) error {
	select {
	case err := <-c.done:
		return err
	case <-time.After(d):
		c.cmd.Process.Kill()
		return <-c.done
	}
}

// Output is the coordinator's combined stdout report.
type Output struct {
	Plan     string
	OK       bool
	Respawns int                    `json:",omitempty"`
	Report   *scenario.Report       `json:",omitempty"` // querier's report (protocol plans)
	SSIProcs []scenario.ShardReport `json:",omitempty"` // per SSI process exit reports
	Stores   []scenario.StoreReport `json:",omitempty"` // store plans
}

// runServe is the hosting mode: parse a ServeConfig from flags, run the
// open-loop schedule against one in-process host, emit the combined
// report (and exports under -out).
func runServe(args []string) int {
	fs := flag.NewFlagSet("pdsd serve", flag.ExitOnError)
	var (
		tenants  = fs.Int("tenants", 1000, "tenant population size")
		rate     = fs.Float64("rate", 2000, "open-loop arrival rate (req/s)")
		arrivals = fs.Int("arrivals", 0, "schedule length (0 = 4x tenants)")
		seed     = fs.Int64("seed", 1, "arrival-schedule seed")
		zipf     = fs.Float64("zipf", 1.1, "tenant popularity skew (s > 1; <= 1 uniform)")
		deny     = fs.Float64("deny", 0.02, "fraction of arrivals with a forbidden purpose")
		arena    = fs.Int("arena", 0, "host RAM envelope in bytes (0 = default)")
		slots    = fs.Int("slots", 0, "execution slots per class (0 = default)")
		queue    = fs.Int("queue", 0, "pending queue depth per class (0 = default)")
		quota    = fs.Int("quota", 0, "per-tenant flash page quota (0 = default)")
		outDir   = fs.String("out", "", "directory for obs snapshot and trace exports")
		httpAddr = fs.String("http", "", "serve live telemetry over HTTP at this address (e.g. 127.0.0.1:0)")
		pace     = fs.Float64("pace", 0, "wall seconds per virtual second (0 = run wall-fast)")
		linger   = fs.Duration("linger", 0, "keep the HTTP endpoint up this long after the run")
		window   = fs.Duration("window", 0, "telemetry sampling interval in virtual time (0 = default 250ms)")
	)
	fs.Parse(args)
	cfg := tenant.ServeConfig{
		Tenants:    *tenants,
		RatePerSec: *rate,
		Arrivals:   *arrivals,
		Seed:       *seed,
		ZipfS:      *zipf,
		DenyFrac:   *deny,
		Host:       tenant.HostConfig{ArenaBytes: *arena, Slots: *slots, QueueDepth: *queue, PageQuota: *quota},
		WindowNS:   int64(*window),
	}
	if cfg.ZipfS <= 1 {
		cfg.ZipfS = -1
	}
	if cfg.DenyFrac == 0 {
		cfg.DenyFrac = -1
	}
	reg := obs.NewRegistry()
	tel := tenant.NewTelemetry(cfg, reg)
	if *httpAddr != "" {
		srv, _, err := startHTTP(*httpAddr, serveMux(tel))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdsd serve: http: %v\n", err)
			return 1
		}
		defer srv.Close()
	}
	rep := scenario.RunServeObserved("serve", cfg, reg, tel, pacer(*pace))
	if *httpAddr != "" && *linger > 0 {
		fmt.Fprintf(os.Stderr, "pdsd serve: lingering %v for scrapes\n", *linger)
		time.Sleep(*linger)
	}
	out := Output{Plan: "serve", OK: rep.OK, Report: &rep}
	if *outDir != "" {
		if err := writeExports(*outDir, rep); err != nil {
			fmt.Fprintf(os.Stderr, "pdsd serve: exports: %v\n", err)
			out.OK = false
		}
	}
	json.NewEncoder(os.Stdout).Encode(out)
	if !out.OK {
		if rep.Failure != "" {
			fmt.Fprintf(os.Stderr, "pdsd serve: %s\n", rep.Failure)
		}
		return 1
	}
	return 0
}

// coordinateServe runs a named hosting plan. Hosting is single-process
// by design — the density of one daemon is what the plan measures — so
// there is nothing to spawn.
func coordinateServe(p scenario.Plan, outDir string) int {
	rep := scenario.RunServe(p.Name, *p.Serve)
	out := Output{Plan: p.Name, OK: rep.OK, Report: &rep}
	if outDir != "" {
		if err := writeExports(outDir, rep); err != nil {
			fmt.Fprintf(os.Stderr, "pdsd: exports: %v\n", err)
			out.OK = false
		}
	}
	json.NewEncoder(os.Stdout).Encode(out)
	if !out.OK {
		if rep.Failure != "" {
			fmt.Fprintf(os.Stderr, "pdsd: %s: %s\n", p.Name, rep.Failure)
		}
		return 1
	}
	return 0
}

func coordinate(p scenario.Plan, outDir, httpAddr string, linger time.Duration) int {
	if p.IsStore() {
		return coordinateStore(p)
	}
	if p.IsServe() {
		return coordinateServe(p, outDir)
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd: %v\n", err)
		return 1
	}
	sw, err := transport.NewSwitch()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd: %v\n", err)
		return 1
	}
	defer sw.Close()

	// The fleet scrape: a dedicated control connection pulls live shard
	// snapshots on every HTTP request, independent of the querier's run.
	if httpAddr != "" {
		conn, err := transport.Dial(sw.Addr(), "telemetry")
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdsd: telemetry dial: %v\n", err)
			return 1
		}
		defer conn.Close()
		ft := &fleetTelemetry{fleet: scenario.NewFleet(conn, p.Shards)}
		srv, _, err := startHTTP(httpAddr, ft.mux())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pdsd: http: %v\n", err)
			return 1
		}
		defer srv.Close()
		if linger > 0 {
			defer time.Sleep(linger)
		}
	}

	ssiArgs := func(i, exitAfter int) []string {
		return []string{"-role", "ssi", "-connect", sw.Addr(), "-plan", p.Name,
			"-shard", strconv.Itoa(i), "-exit-after", strconv.Itoa(exitAfter)}
	}
	nodes := make([]*child, p.Shards)
	for i := range nodes {
		ea := 0
		if i == p.RestartShard {
			ea = p.RestartAfter
		}
		if nodes[i], err = start(self, ssiArgs(i, ea)...); err != nil {
			fmt.Fprintf(os.Stderr, "pdsd: spawn ssi %d: %v\n", i, err)
			return 1
		}
	}
	querier, err := start(self, "-role", "querier", "-connect", sw.Addr(), "-plan", p.Name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd: spawn querier: %v\n", err)
		return 1
	}

	// A restart plan's target SSI exits mid-collection; respawn it once,
	// empty, so the deployment recovers while the checksum still catches
	// the state loss.
	out := Output{Plan: p.Name}
	respawned := make(chan *child, 1)
	if p.RestartShard >= 0 {
		target := nodes[p.RestartShard]
		go func() {
			<-target.done
			target.done <- nil // keep the exit report collectable below
			c, err := start(self, ssiArgs(p.RestartShard, 0)...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pdsd: respawn ssi %d: %v\n", p.RestartShard, err)
			}
			respawned <- c
		}()
	}

	qerr := querier.reap(5 * time.Minute)
	var rep scenario.Report
	if err := json.Unmarshal(querier.out.Bytes(), &rep); err != nil {
		fmt.Fprintf(os.Stderr, "pdsd: querier produced no report (%v, exit %v)\n", err, qerr)
		return 1
	}
	out.Report = &rep
	out.OK = rep.OK

	// The querier's stop calls end the SSI processes; collect their exit
	// reports (the respawned incarnation replaces the crashed one's slot).
	if p.RestartShard >= 0 {
		out.Respawns = 1
		if c := <-respawned; c != nil {
			nodes = append(nodes, c)
		}
	}
	for _, c := range nodes {
		c.reap(10 * time.Second)
		var sr scenario.ShardReport
		if err := json.Unmarshal(c.out.Bytes(), &sr); err == nil {
			sr.Obs = nil // node snapshots already ride the querier report
			out.SSIProcs = append(out.SSIProcs, sr)
		}
	}

	if outDir != "" {
		if err := writeExports(outDir, rep); err != nil {
			fmt.Fprintf(os.Stderr, "pdsd: exports: %v\n", err)
			out.OK = false
		}
	}
	json.NewEncoder(os.Stdout).Encode(out)
	if !out.OK {
		return 1
	}
	return 0
}

func coordinateStore(p scenario.Plan) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdsd: %v\n", err)
		return 1
	}
	out := Output{Plan: p.Name, OK: true}
	kids := make([]*child, len(p.StoreKinds))
	for i, kind := range p.StoreKinds {
		if kids[i], err = start(self, "-role", "store", "-kind", kind, "-stride", strconv.Itoa(p.StoreStride)); err != nil {
			fmt.Fprintf(os.Stderr, "pdsd: spawn store %s: %v\n", kind, err)
			return 1
		}
	}
	for i, c := range kids {
		c.reap(5 * time.Minute)
		var sr scenario.StoreReport
		if err := json.Unmarshal(c.out.Bytes(), &sr); err != nil {
			sr = scenario.StoreReport{Kind: p.StoreKinds[i], Failure: "no report"}
		}
		if !sr.OK {
			out.OK = false
		}
		out.Stores = append(out.Stores, sr)
	}
	json.NewEncoder(os.Stdout).Encode(out)
	if !out.OK {
		return 1
	}
	return 0
}

// writeExports lands the querier's obs snapshot and Perfetto trace as
// files — the artifact surface of a scenario run.
func writeExports(dir string, rep scenario.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), full, 0o644); err != nil {
		return err
	}
	if len(rep.Obs) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "querier.obs.json"), rep.Obs, 0o644); err != nil {
			return err
		}
	}
	if len(rep.Trace) > 0 {
		if err := os.WriteFile(filepath.Join(dir, "querier.trace.json"), rep.Trace, 0o644); err != nil {
			return err
		}
	}
	return nil
}
