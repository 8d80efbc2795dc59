package tenant

import (
	"fmt"

	"pds/internal/acl"
	"pds/internal/obs"
	"pds/internal/workload"
)

// ServeConfig is one hosted serve run: a tenant population, an
// open-loop arrival schedule, and the host envelope it lands on. Zero
// fields take the defaults below (a small but saturating run).
type ServeConfig struct {
	// Tenants is the population size (default 1000 — the hosting
	// density target).
	Tenants int
	// RatePerSec is the open-loop arrival rate (default 2000/s).
	RatePerSec float64
	// Arrivals is the schedule length (default 4× Tenants).
	Arrivals int
	// Seed fixes the schedule (default 1).
	Seed int64
	// ZipfS skews tenant popularity (default 1.1; set negative for
	// uniform).
	ZipfS float64
	// DenyFrac is the fraction of arrivals carrying a forbidden purpose
	// (default 0.02; set negative for none).
	DenyFrac float64
	// Host sizes the daemon the schedule lands on.
	Host HostConfig
	// WindowNS is the telemetry sampling interval in virtual nanoseconds
	// (default obs.DefaultWindowEvery).
	WindowNS int64
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Tenants <= 0 {
		c.Tenants = 1000
	}
	if c.RatePerSec <= 0 {
		c.RatePerSec = 2000
	}
	if c.Arrivals <= 0 {
		c.Arrivals = 4 * c.Tenants
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	} else if c.ZipfS < 0 {
		c.ZipfS = 0
	}
	if c.DenyFrac == 0 {
		c.DenyFrac = 0.02
	} else if c.DenyFrac < 0 {
		c.DenyFrac = 0
	}
	return c
}

// ClassSLO is one operation class's latency profile over a run.
// Percentiles are bucket upper bounds from the MetricLatency histogram
// — the same numbers an operator reads off the registry.
type ClassSLO struct {
	Class    string `json:"class"`
	Requests int64  `json:"requests"`
	P50NS    int64  `json:"p50_ns"`
	P99NS    int64  `json:"p99_ns"`
	P999NS   int64  `json:"p999_ns"`
}

// ServeReport is the outcome of one serve run. Every field is a pure
// function of the config, so two same-seed runs must produce identical
// reports — DecisionDigest pins the whole admission stream.
type ServeReport struct {
	Tenants    int     `json:"tenants"`
	Arrivals   int     `json:"arrivals"`
	RatePerSec float64 `json:"rate_per_sec"`
	// DurationNS is the virtual makespan: the last completion instant.
	DurationNS int64 `json:"duration_ns"`

	Admitted int `json:"admitted"`
	Queued   int `json:"queued"`
	Shed     int `json:"shed"`
	Denied   int `json:"denied"`
	Quota    int `json:"quota"`

	Provisions    int64 `json:"provisions"`
	Evictions     int64 `json:"evictions"`
	Reopens       int64 `json:"reopens"`
	MaxQueueDepth int   `json:"max_queue_depth"`

	// RAMHighWater vs RAMBudget is the hosting headline: the aggregate
	// resident envelope never exceeds the arena, no matter the
	// population size.
	RAMHighWater int `json:"ram_high_water"`
	RAMBudget    int `json:"ram_budget"`

	// ACLDecisions must equal Arrivals: zero unguarded request paths.
	ACLDecisions int64 `json:"acl_decisions"`

	DecisionDigest string     `json:"decision_digest"`
	Classes        []ClassSLO `json:"classes"`

	// Telemetry-plane outcome: how many window samples the run took and
	// the running digest over their canonical encodings — the telemetry
	// determinism pin (two same-seed runs agree byte-for-byte).
	WindowSamples int    `json:"window_samples"`
	WindowDigest  string `json:"window_digest"`
	// AlertsFired counts the SLO burn alerts the run raised; Burn is the
	// final per-class budget state; Hot the heavy-hitter rankings.
	AlertsFired int             `json:"alerts_fired"`
	Burn        []ClassBurn     `json:"burn,omitempty"`
	Hot         AttributionView `json:"hot,omitempty"`
}

// Serve runs one open-loop schedule against a fresh host metering into
// reg (obs.NewRegistry() if nil) and returns the report. Refusals
// (shed/denied/quota) are part of normal operation; any other error
// aborts the run.
func Serve(cfg ServeConfig, reg *obs.Registry) (*ServeReport, error) {
	return ServeObserved(cfg, reg, nil, nil)
}

// ServeObserved is Serve with the telemetry plane exposed: tel (created
// internally when nil) is live-readable while the run executes, and
// pace, when non-nil, is called with each arrival's virtual instant
// before it is served — the seam `pdsd serve` uses to stretch virtual
// time over wall time so an HTTP scrape can watch the run. Neither
// affects the decision stream or the window digest: pacing delays wall
// execution, never virtual arrivals.
func ServeObserved(cfg ServeConfig, reg *obs.Registry, tel *Telemetry, pace func(atNS int64)) (*ServeReport, error) {
	cfg = cfg.withDefaults()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if tel == nil {
		tel = NewTelemetry(cfg, reg)
	}
	gen, err := workload.NewOpenLoop(workload.OpenLoopConfig{
		Tenants:    cfg.Tenants,
		RatePerSec: cfg.RatePerSec,
		Arrivals:   cfg.Arrivals,
		Seed:       cfg.Seed,
		ZipfS:      cfg.ZipfS,
		DenyFrac:   cfg.DenyFrac,
	})
	if err != nil {
		return nil, err
	}
	h := NewHost(cfg.Host, reg)
	tel.BindHost(h)
	rep := &ServeReport{
		Tenants:    cfg.Tenants,
		Arrivals:   cfg.Arrivals,
		RatePerSec: cfg.RatePerSec,
		RAMBudget:  h.arena.Budget(),
	}
	status := tel.Status()
	status.Tenants = cfg.Tenants
	status.Arrivals = cfg.Arrivals
	status.Running = true
	tel.SetStatus(status)
	fail := func(err error) (*ServeReport, error) {
		status.Running = false
		status.OK = false
		status.Failure = err.Error()
		tel.SetStatus(status)
		return nil, err
	}
	for {
		a, ok := gen.Next()
		if !ok {
			break
		}
		if pace != nil {
			pace(a.AtNS)
		}
		name := fmt.Sprintf("tenant-%04d", a.Tenant)
		resp, err := h.Do(Request{
			Tenant:  name,
			Class:   ClassOf(a.Tenant),
			AtNS:    a.AtNS,
			Subject: name,
			Role:    "owner",
			Purpose: a.Purpose,
		})
		switch resp.Decision {
		case DecisionAdmit:
			rep.Admitted++
		case DecisionQueued:
			rep.Queued++
		case DecisionShed:
			rep.Shed++
		case DecisionDenied:
			rep.Denied++
		case DecisionQuota:
			rep.Quota++
		default:
			return fail(fmt.Errorf("serve: arrival at %dns: %w", a.AtNS, err))
		}
		if resp.EndNS > rep.DurationNS {
			rep.DurationNS = resp.EndNS
		}
		tel.Window.Advance(h.NowNS())
		status.Done++
		status.NowNS = h.NowNS()
		tel.SetStatus(status)
	}
	// Final capture: the end-of-run state always lands in the window.
	endNS := rep.DurationNS
	if h.NowNS() > endNS {
		endNS = h.NowNS()
	}
	tel.Window.SampleNow(endNS)
	rep.Provisions = reg.CounterValue(MetricProvisions)
	rep.Evictions = reg.CounterValue(MetricEvictions)
	rep.Reopens = reg.CounterValue(MetricReopens)
	rep.MaxQueueDepth = h.MaxQueueDepth()
	rep.RAMHighWater = h.arena.HighWater()
	rep.ACLDecisions = reg.CounterValue(acl.MetricDecisions, "allowed", "true") +
		reg.CounterValue(acl.MetricDecisions, "allowed", "false")
	rep.DecisionDigest = h.Digest()
	for c := Class(0); c < NumClasses; c++ {
		hist := reg.Histogram(MetricLatency, LatencyBounds(), "class", c.String())
		slo := ClassSLO{Class: c.String(), Requests: hist.Count()}
		if v, ok := hist.Quantile(0.50); ok {
			slo.P50NS = v
		}
		if v, ok := hist.Quantile(0.99); ok {
			slo.P99NS = v
		}
		if v, ok := hist.Quantile(0.999); ok {
			slo.P999NS = v
		}
		rep.Classes = append(rep.Classes, slo)
	}
	rep.WindowSamples = tel.Window.Samples()
	rep.WindowDigest = tel.Window.Digest()
	rep.AlertsFired = len(reg.Alerts())
	rep.Burn = tel.Burn.Burns()
	rep.Hot = tel.Attr.Top()
	status.Running = false
	status.OK = true
	status.NowNS = endNS
	tel.SetStatus(status)
	return rep, nil
}
