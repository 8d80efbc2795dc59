// Plan executors: Run drives a whole plan in-process over the netsim
// substrate (every node a goroutine); RunQuerier is the querier role of a
// multi-process deployment over TCP (the SSI nodes live in other
// processes, fronted by a Fleet); RunStoreSweep is the store role. Both
// protocol executors drive one ssi.ShardSet of streaming nodes — local
// servers or remote shards — and converge on the same Report, so pdsd
// output and in-process results are directly comparable.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"pds/internal/crashharness"
	"pds/internal/durable"
	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
	"pds/internal/tenant"
	"pds/internal/transport"
)

// WireStats is the scalar cost surface of one run, lifted from
// gquery.RunStats for the report.
type WireStats struct {
	Messages    int64
	Bytes       int64
	Chunks      int
	WorkerCalls int
	Retransmits int
	AckMessages int
	TagFailures int
	MACFailures int
}

// Report is the outcome of one protocol plan run.
type Report struct {
	Plan     string
	Mode     string // "in-process" or "multi-process"
	Tokens   int
	Shards   int
	Groups   int
	Total    int64
	Exact    bool                // aggregate equals the plain computation
	Detected bool                // token-side checks raised a DetectionError
	OK       bool                // the plan's expectation held
	Failure  string              `json:",omitempty"`
	Stats    WireStats           `json:",omitempty"`
	SSI      []ShardReport       `json:",omitempty"`
	Hosting  *tenant.ServeReport `json:",omitempty"` // serve plans
	Obs      json.RawMessage     `json:",omitempty"` // querier obs snapshot
	Trace    json.RawMessage     `json:",omitempty"` // Perfetto trace export
}

// verdict fills the outcome fields from a protocol run against the
// plan's expectation.
func (p Plan) verdict(rep *Report, res gquery.Result, stats gquery.RunStats, err error, parts []gquery.Participant) {
	rep.Stats = WireStats{
		Messages:    stats.Net.Messages,
		Bytes:       stats.Net.Bytes,
		Chunks:      stats.Chunks,
		WorkerCalls: stats.WorkerCalls,
		Retransmits: stats.Retransmits,
		AckMessages: stats.AckMessages,
		TagFailures: stats.TagFailures,
		MACFailures: stats.MACFailures,
	}
	var de *gquery.DetectionError
	rep.Detected = errors.As(err, &de)
	switch {
	case p.ExpectDetection:
		if rep.Detected {
			rep.OK = true
		} else if err != nil {
			rep.Failure = fmt.Sprintf("expected a DetectionError, got: %v", err)
		} else {
			rep.Failure = "expected a DetectionError, but the run succeeded"
		}
	case err != nil:
		rep.Failure = err.Error()
	default:
		want := gquery.PlainResult(parts)
		rep.Groups = len(res)
		rep.Total = res.TotalCount()
		rep.Exact = resultsEqual(res, want)
		if rep.Exact {
			rep.OK = true
		} else {
			rep.Failure = "aggregate differs from the plain computation"
		}
	}
}

func resultsEqual(a, b gquery.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// Run executes a protocol plan in-process on the netsim substrate. Store
// plans run their sweeps inline.
func Run(p Plan) (Report, error) {
	if p.IsStore() {
		return runStorePlan(p)
	}
	if p.IsServe() {
		return RunServe(p.Name, *p.Serve), nil
	}
	rep := Report{Plan: p.Name, Mode: "in-process", Tokens: p.Tokens, Shards: p.Shards}
	w := netsim.New()
	nodes, err := p.localNodes(w)
	if err != nil {
		return rep, err
	}
	parts := p.Participants()
	kr, err := p.Keyring()
	if err != nil {
		return rep, err
	}
	reg := obs.NewRegistry()
	res, stats, runErr := gquery.New(p.Options(reg)...).SecureAgg(w, ssi.NewShardSet(nodes), parts, kr, p.ChunkSize)
	p.verdict(&rep, res, stats, runErr, parts)
	for i, n := range nodes {
		o := n.(interface{ Observations() ssi.Observations }).Observations()
		rep.SSI = append(rep.SSI, ShardReport{Shard: i, Observations: o})
	}
	attachObs(&rep, reg)
	return rep, nil
}

// localNodes builds the in-process SSI fleet for the plan: one server per
// shard, and at RestartShard a server swapped for a fresh one
// mid-collection (the goroutine twin of the process crash).
func (p Plan) localNodes(w transport.Transport) ([]ssi.Node, error) {
	nodes := ssi.Servers(w, max(p.Shards, 1), p.Mode, p.Behavior)
	if p.RestartShard >= len(nodes) {
		return nil, fmt.Errorf("scenario: restart shard %d of %d shards", p.RestartShard, len(nodes))
	}
	if p.RestartShard >= 0 {
		b := p.Behavior.ForShard(p.RestartShard)
		mk := func() *ssi.Server { return ssi.New(w, p.Mode, b) }
		nodes[p.RestartShard] = &restartNode{Server: mk(), fresh: mk, after: p.RestartAfter}
	}
	return nodes, nil
}

// restartNode swaps its server for a fresh one after the after-th upload
// — what an SSI process crash-and-respawn does. The dying server loses
// exactly what a dying process holds: its partial chunk, and the rest of
// the crashing upload frame (as on a remote node, ServeSSI); the chunks
// it emitted before stay emitted. The embedded server is the current
// incarnation, which finishes the stream, observes groups and reports
// what it observed. Like every node, it is driven from the one
// collection goroutine.
type restartNode struct {
	*ssi.Server
	fresh func() *ssi.Server
	after int
	seen  int
	lost  string // the PDS whose frame was cut by the crash, while its rest arrives

	chunkSize int
	emit      func([]netsim.Envelope)
	trace     obs.SpanContext
}

func (r *restartNode) BindTrace(ctx obs.SpanContext) {
	r.trace = ctx
	r.Server.BindTrace(ctx)
}

// StartStream opens the current server's stream, its chunks gated on
// that server still being the current one: a crashed server's flush goes
// nowhere.
func (r *restartNode) StartStream(chunkSize int, emit func([]netsim.Envelope)) error {
	r.chunkSize, r.emit = chunkSize, emit
	srv := r.Server
	return srv.StartStream(chunkSize, func(chunk []netsim.Envelope) {
		if srv == r.Server {
			emit(chunk)
		}
	})
}

// Receive ingests one tuple of an upload frame. The tuples of a frame
// arrive one after another under their sender's id, so the rest of the
// crashing frame is every following tuple from the same sender.
func (r *restartNode) Receive(e netsim.Envelope) {
	if e.From == r.lost {
		return
	}
	r.lost = ""
	r.Server.Receive(e)
	r.seen++
	if r.seen == r.after {
		// The crash fires after this upload lands, so what dies holds
		// it. The dying server's stream still ends, so its partition span
		// does; the fresh one streams under the same trace context. Both
		// calls repeat ones that succeeded on the stream being replaced.
		dead := r.Server
		r.Server, r.lost = r.fresh(), e.From
		dead.FinishStream()
		r.BindTrace(r.trace)
		r.StartStream(r.chunkSize, r.emit)
	}
}

// RunQuerier executes the querier role of a multi-process deployment:
// wait for every shard process, run the protocol over the TCP wire
// against the fleet's shard set, verify the plan expectation, then
// collect every shard's snapshot and ask the fleet to stop.
func RunQuerier(conn *transport.TCP, p Plan) (Report, error) {
	rep := Report{Plan: p.Name, Mode: "multi-process", Tokens: p.Tokens, Shards: p.Shards}
	if p.IsStore() {
		return rep, errors.New("scenario: store plans have no querier role")
	}
	fleet := NewFleet(conn, p.Shards)
	if err := fleet.WaitReady(15 * time.Second); err != nil {
		return rep, err
	}
	parts := p.Participants()
	kr, err := p.Keyring()
	if err != nil {
		return rep, err
	}
	reg := obs.NewRegistry()
	res, stats, runErr := gquery.New(p.Options(reg)...).SecureAgg(conn, fleet.Infra(), parts, kr, p.ChunkSize)
	p.verdict(&rep, res, stats, runErr, parts)
	for i := 0; i < p.Shards; i++ {
		sr, err := fleet.Snapshot(i)
		if err != nil {
			sr = ShardReport{Shard: i}
		}
		rep.SSI = append(rep.SSI, sr)
	}
	fleet.Stop()
	attachObs(&rep, reg)
	return rep, nil
}

func attachObs(rep *Report, reg *obs.Registry) {
	snap := reg.Snapshot()
	if b, err := snap.JSON(); err == nil {
		rep.Obs = b
	}
	if b, err := snap.PerfettoJSON(); err == nil {
		rep.Trace = b
	}
}

// StoreReport is the outcome of one engine's crash-battery sweep.
type StoreReport struct {
	Kind    string
	Stride  int
	Runs    int
	Crashes int
	OK      bool
	Failure string       `json:",omitempty"`
	Sweeps  []SweepEntry `json:",omitempty"`
}

// SweepEntry summarizes one fault-kind sweep.
type SweepEntry struct {
	Op                   string
	Runs                 int
	Crashes              int
	MaxRecoveryPageReads int
}

// RunStoreSweep runs the full power-fail battery for one durable engine
// kind at the given stride — the store role of a store plan.
func RunStoreSweep(kind string, stride int) StoreReport {
	rep := StoreReport{Kind: kind, Stride: stride}
	k, ok := durable.ByName(kind)
	if !ok {
		rep.Failure = fmt.Sprintf("unknown durable engine %q", kind)
		return rep
	}
	w := crashharness.WorkloadFor(k)
	base, err := crashharness.Baseline(w)
	if err != nil {
		rep.Failure = fmt.Sprintf("baseline: %v", err)
		return rep
	}
	for _, op := range k.CrashOps {
		st, err := crashharness.Sweep(w, op, 0xC0FFEE, stride, base)
		if err != nil {
			rep.Failure = err.Error()
			return rep
		}
		rep.Runs += st.Runs
		rep.Crashes += st.Crashes
		rep.Sweeps = append(rep.Sweeps, SweepEntry{
			Op:                   op.String(),
			Runs:                 st.Runs,
			Crashes:              st.Crashes,
			MaxRecoveryPageReads: int(st.MaxIO.PageReads),
		})
	}
	rep.OK = rep.Crashes > 0
	if !rep.OK {
		rep.Failure = "no sweep ever fired a crash"
	}
	return rep
}

// RunServe executes one hosting run and verifies its invariants: every
// arrival crossed a guard, resident RAM stayed under the arena budget,
// work was actually admitted, and a non-trivial population churned
// through eviction. The serve report and the obs snapshot both ride the
// scenario report, so hosting runs export like protocol runs.
func RunServe(name string, cfg tenant.ServeConfig) Report {
	return RunServeObserved(name, cfg, nil, nil, nil)
}

// RunServeObserved is RunServe with the telemetry plane threaded
// through: tel (created by tenant.ServeObserved when nil) stays
// scrape-readable for the whole run, reg receives the run's metrics
// (fresh when nil), and pace stretches virtual arrivals over wall time
// for live observation. The verdict and report are identical to
// RunServe's — telemetry never changes the outcome.
func RunServeObserved(name string, cfg tenant.ServeConfig, reg *obs.Registry, tel *tenant.Telemetry, pace func(atNS int64)) Report {
	rep := Report{Plan: name, Mode: "serve"}
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tel != nil {
		st := tel.Status()
		st.Plan = name
		tel.SetStatus(st)
	}
	sr, err := tenant.ServeObserved(cfg, reg, tel, pace)
	if err != nil {
		rep.Failure = err.Error()
		return rep
	}
	rep.Hosting = sr
	rep.Tokens = sr.Tenants
	switch {
	case sr.ACLDecisions != int64(sr.Arrivals):
		rep.Failure = fmt.Sprintf("acl decisions %d != arrivals %d: unguarded request path", sr.ACLDecisions, sr.Arrivals)
	case sr.RAMHighWater > sr.RAMBudget:
		rep.Failure = fmt.Sprintf("resident RAM high-water %d over arena budget %d", sr.RAMHighWater, sr.RAMBudget)
	case sr.Admitted == 0:
		rep.Failure = "no request was admitted"
	case sr.Provisions == 0 || sr.Provisions > int64(sr.Tenants):
		rep.Failure = fmt.Sprintf("provisioned %d envelopes for a %d-tenant population", sr.Provisions, sr.Tenants)
	default:
		rep.OK = true
	}
	attachObs(&rep, reg)
	return rep
}

func runStorePlan(p Plan) (Report, error) {
	rep := Report{Plan: p.Name, Mode: "in-process", OK: true}
	var failures []string
	for _, kind := range p.StoreKinds {
		sr := RunStoreSweep(kind, p.StoreStride)
		if !sr.OK {
			rep.OK = false
			failures = append(failures, fmt.Sprintf("%s: %s", kind, sr.Failure))
		}
	}
	if len(failures) > 0 {
		rep.Failure = fmt.Sprintf("%v", failures)
	}
	return rep, nil
}
