// Plan executors: Run drives a whole plan in-process over the netsim
// substrate (every node a goroutine); RunQuerier is the querier role of a
// multi-process deployment over TCP (the SSI nodes live in other
// processes, fronted by RemoteInfra); RunStoreSweep is the store role.
// All three converge on the same Report, so pdsd output and in-process
// results are directly comparable.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"
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
	infra, err := p.localInfra(w)
	if err != nil {
		return rep, err
	}
	parts := p.Participants()
	kr, err := p.Keyring()
	if err != nil {
		return rep, err
	}
	reg := obs.NewRegistry()
	res, stats, runErr := gquery.New(p.Options(reg)...).SecureAgg(w, infra, parts, kr, p.ChunkSize)
	p.verdict(&rep, res, stats, runErr, parts)
	attachObs(&rep, reg)
	return rep, nil
}

// localInfra builds the in-process SSI for the plan: a single server, a
// shard set, or — for a restart plan — a server swapped for a fresh one
// mid-collection (the goroutine twin of the process crash).
func (p Plan) localInfra(w transport.Transport) (gquery.Infra, error) {
	if p.RestartShard >= 0 {
		if p.Shards > 1 {
			return nil, errors.New("scenario: in-process restart supports a single shard")
		}
		mk := func() gquery.Infra { return ssi.New(w, p.Mode, p.Behavior) }
		return &restartInfra{inner: mk(), fresh: mk, after: p.RestartAfter}, nil
	}
	if p.Shards > 1 {
		return ssi.NewShardSet(w, p.Shards, p.Mode, p.Behavior)
	}
	return ssi.New(w, p.Mode, p.Behavior), nil
}

// restartInfra loses all state accumulated before the after-th upload —
// exactly what an SSI process crash-and-respawn does to its inbox. The
// crash can fall inside a PDS's upload frame: the rest of that frame dies
// with the process, as it does on a remote node (ServeSSI).
type restartInfra struct {
	mu    sync.Mutex
	inner gquery.Infra
	fresh func() gquery.Infra
	after int
	seen  int
	lost  string // the PDS whose frame was cut by the crash, while its rest arrives
}

// Receive ingests one tuple of an upload frame. The tuples of a frame
// arrive one after another under their sender's id, so the rest of the
// crashing frame is every following tuple from the same sender.
func (r *restartInfra) Receive(e netsim.Envelope) {
	r.mu.Lock()
	if e.From == r.lost {
		r.mu.Unlock()
		return
	}
	r.lost = ""
	r.seen++
	in := r.inner
	if r.seen == r.after {
		// The crash fires after this upload lands, so the discarded inbox
		// includes it — matching the process that dies holding 1..after.
		r.inner = r.fresh()
		r.lost = e.From
	}
	r.mu.Unlock()
	in.Receive(e)
}

func (r *restartInfra) cur() gquery.Infra {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.inner
}

func (r *restartInfra) Partition(chunkSize int) ([][]netsim.Envelope, error) {
	return r.cur().Partition(chunkSize)
}
func (r *restartInfra) ObserveGroup(key []byte)       { r.cur().ObserveGroup(key) }
func (r *restartInfra) BindTrace(ctx obs.SpanContext) { r.cur().BindTrace(ctx) }
func (r *restartInfra) Dest(pds string) string        { return r.cur().Dest(pds) }

// RunQuerier executes the querier role of a multi-process deployment:
// wait for every shard process, run the protocol over the TCP wire
// against the remote infra, verify the plan expectation, then collect
// every shard's snapshot and ask the fleet to stop.
func RunQuerier(conn *transport.TCP, p Plan) (Report, error) {
	rep := Report{Plan: p.Name, Mode: "multi-process", Tokens: p.Tokens, Shards: p.Shards}
	if p.IsStore() {
		return rep, errors.New("scenario: store plans have no querier role")
	}
	infra := NewRemoteInfra(conn, p.Shards)
	if err := infra.WaitReady(15 * time.Second); err != nil {
		return rep, err
	}
	parts := p.Participants()
	kr, err := p.Keyring()
	if err != nil {
		return rep, err
	}
	reg := obs.NewRegistry()
	res, stats, runErr := gquery.New(p.Options(reg)...).SecureAgg(conn, infra, parts, kr, p.ChunkSize)
	p.verdict(&rep, res, stats, runErr, parts)
	for i := 0; i < p.Shards; i++ {
		sr, err := infra.Snapshot(i)
		if err != nil {
			sr = ShardReport{Shard: i}
		}
		rep.SSI = append(rep.SSI, sr)
	}
	infra.Stop()
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
