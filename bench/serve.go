package main

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"pds/internal/acl"
	"pds/internal/flash"
	"pds/internal/obs"
	"pds/internal/tenant"
)

// Purposes of generated requests: the tenant policy allows the first and
// refuses the second on every path.
const (
	purposeServe     = "serve"
	purposeForbidden = "marketing"
)

// sloRates is the ladder tenant.slo_rate_per_s climbs, and sloP99NS and
// sloFailFrac the limits a rung must keep.
var sloRates = []float64{500, 1000, 2000, 4000, 8000, 16000, 32000}

const (
	sloP99NS    = 100 * int64(time.Millisecond)
	sloFailFrac = 0.01
)

// serveWorkload is one open-loop traffic shape against a fresh
// tenant.Host per episode; an op is one Host.Do.
type serveWorkload struct {
	name, why string
	shape     serveShape
	episodes  int
}

func (w *serveWorkload) Name() string  { return w.name }
func (w *serveWorkload) Why() string   { return w.why }
func (w *serveWorkload) Episodes() int { return w.episodes }

// serveInst is a set-up serve workload plus what its traced episodes
// accumulate.
type serveInst struct {
	w      *serveWorkload
	seed   int64
	names  []string
	digest string

	tr serveTrace
}

// serveTrace is the per-request detail only the traced pass records.
type serveTrace struct {
	ops                                    int
	doWall                                 []int64 // per-request wall ns
	classWall                              [doClasses][]int64
	classVirt                              [tenant.NumClasses][]int64
	virt                                   []int64
	evictions, reopens                     int64
	queued, shed, denied, quota            int
	clamped                                int
	maxQueue                               int
	highWaterFrac                          float64
	heapPerTenant                          float64
	pageReads, pageWrites, erases, wearMax int64
	auditEntries                           int64
}

// Request classes by what the request did to the host, read from counter
// deltas around the call: served from a resident store; reopened an
// evicted store through recovery (which, with the arena full, also
// evicts another); evicted without reopening (a first touch); refused.
const (
	doResident = iota
	doReopen
	doEvict
	doRefused
	doClasses
)

func (w *serveWorkload) Setup(seed int64) (instance, error) {
	s := &serveInst{w: w, seed: seed, names: tenantNames(w.shape.Tenants)}
	d := newDigester()
	for ep := 0; ep < w.episodes; ep++ {
		d.arrivals(genArrivals(w.shape, episodeSeed(seed, ep)))
	}
	s.digest = d.sum()
	// Warm up: one short untimed run so the first timed episode does not
	// pay for first-touch page faults and lazy runtime set-up.
	warm := w.shape
	warm.Arrivals = min(warm.Arrivals, 500)
	if _, err := s.run(genArrivals(warm, episodeSeed(seed, -1)), true, nil, nil); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *serveInst) InputDigest() string { return s.digest }
func (s *serveInst) Close() error        { return nil }

// serveRun is one finished schedule.
type serveRun struct {
	host *tenant.Host
	reg  *obs.Registry
	epOut
	denied int
}

func (s *serveInst) request(a arrival) tenant.Request {
	name := s.names[a.Tenant]
	purpose := purposeServe
	if a.Forbidden {
		purpose = purposeForbidden
	}
	return tenant.Request{
		Tenant: name, Class: tenant.ClassOf(int(a.Tenant)), AtNS: a.AtNS,
		Subject: name, Role: "owner", Purpose: purpose,
	}
}

// run drives one schedule through a fresh host, timing the request loop
// only. With telemetry the plane is bound and the window advanced after
// every request, exactly as tenant.ServeObserved does. rec is nil on the
// measured pass.
func (s *serveInst) run(arr []arrival, telemetry bool, virt []int64, rec *recorder) (*serveRun, error) {
	reg := obs.NewRegistry()
	h := tenant.NewHost(tenant.HostConfig{}, reg)
	var tel *tenant.Telemetry
	if telemetry {
		tel = tenant.NewTelemetry(tenant.ServeConfig{}, reg)
		tel.BindHost(h)
	}
	r := &serveRun{host: h, reg: reg}
	r.ops = len(arr)
	virt = slices.Grow(virt, len(arr))
	var err error
	m := startMeter()
	if rec == nil {
		err = s.loop(r, arr, tel, &virt)
	} else {
		err = s.tracedLoop(r, arr, tel, &virt, rec)
	}
	if tel != nil {
		tel.Window.SampleNow(h.NowNS())
	}
	m.stop(&r.epOut)
	r.virt = virt
	r.digest = h.Digest()
	return r, err
}

// account classifies one response.
func (r *serveRun) account(resp tenant.Response, err error, virt *[]int64) error {
	switch resp.Decision {
	case tenant.DecisionAdmit, tenant.DecisionQueued:
		*virt = append(*virt, resp.LatencyNS)
	case tenant.DecisionShed, tenant.DecisionQuota:
		r.refused++
	case tenant.DecisionDenied:
		r.denied++
	default:
		r.failed++
		return fmt.Errorf("hosting fault: %w", err)
	}
	return nil
}

func (s *serveInst) loop(r *serveRun, arr []arrival, tel *tenant.Telemetry, virt *[]int64) error {
	h := r.host
	for _, a := range arr {
		resp, err := h.Do(s.request(a))
		if err := r.account(resp, err, virt); err != nil {
			return err
		}
		if tel != nil {
			tel.Window.Advance(h.NowNS())
		}
	}
	return nil
}

// tracedLoop is loop with a span per call into the host and the window,
// the wall time of every request, and the request's class read from the
// host's public counters.
func (s *serveInst) tracedLoop(r *serveRun, arr []arrival, tel *tenant.Telemetry, virt *[]int64, rec *recorder) error {
	h, tr := r.host, &s.tr
	evictions := r.reg.Counter(tenant.MetricEvictions)
	reopens := r.reg.Counter(tenant.MetricReopens)
	base := tr.ops
	for i, a := range arr {
		req := s.request(a)
		if req.AtNS < h.NowNS() {
			tr.clamped++
		}
		ev0, re0 := evictions.Value(), reopens.Value()
		op := rec.begin("op", 0, base+i)
		sp := rec.begin("tenant.do", op, base+i)
		t0 := time.Now()
		resp, err := h.Do(req)
		wall := int64(time.Since(t0))
		rec.end(sp)
		n := len(*virt)
		if err := r.account(resp, err, virt); err != nil {
			return err
		}
		class := doResident
		switch {
		case len(*virt) == n:
			class = doRefused
		case reopens.Value() > re0:
			class = doReopen
		case evictions.Value() > ev0:
			class = doEvict
		}
		tr.doWall = append(tr.doWall, wall)
		tr.classWall[class] = append(tr.classWall[class], wall)
		switch resp.Decision {
		case tenant.DecisionQueued:
			tr.queued++
		case tenant.DecisionShed:
			tr.shed++
		case tenant.DecisionDenied:
			tr.denied++
		case tenant.DecisionQuota:
			tr.quota++
		}
		if len(*virt) > n {
			tr.classVirt[req.Class] = append(tr.classVirt[req.Class], resp.LatencyNS)
		}
		if tel != nil {
			sp := rec.begin("obs.window_advance", op, base+i)
			tel.Window.Advance(h.NowNS())
			rec.end(sp)
		}
		rec.end(op)
	}
	tr.ops += len(arr)
	return nil
}

func (s *serveInst) Episode(c *epCtx) (epOut, error) {
	arr := genArrivals(s.w.shape, episodeSeed(s.seed, c.ep))
	var heap0 uint64
	if c.heap && c.rec != nil {
		heap0 = liveHeap()
	}
	nvirt := len(c.virt)
	r, err := s.run(arr, true, c.virt, c.rec)
	if err != nil {
		return r.epOut, err
	}
	if c.heap {
		r.liveHeap = liveHeap()
		runtime.KeepAlive(r.host)
	}
	s.check(r, arr)
	if c.rec != nil {
		s.observe(r, r.virt[nvirt:], heap0)
	}
	return r.epOut, nil
}

// check is the serve correctness gate: no unguarded request path, every
// forbidden arrival denied and nothing else, the RAM envelope kept, and
// intact audit chains on a sample of tenants.
func (s *serveInst) check(r *serveRun, arr []arrival) {
	decisions := r.reg.CounterValue(acl.MetricDecisions, "allowed", "true") +
		r.reg.CounterValue(acl.MetricDecisions, "allowed", "false")
	if decisions != int64(len(arr)) {
		r.violations = append(r.violations, fmt.Sprintf("%d ACL decisions for %d arrivals", decisions, len(arr)))
	}
	forbidden := 0
	for _, a := range arr {
		if a.Forbidden {
			forbidden++
		}
	}
	if r.denied != forbidden {
		r.violations = append(r.violations, fmt.Sprintf("%d requests denied, %d forbidden arrivals scheduled", r.denied, forbidden))
	}
	if hw, budget := r.host.Arena().HighWater(), r.host.Arena().Budget(); hw > budget {
		r.violations = append(r.violations, fmt.Sprintf("arena high-water %d exceeds budget %d", hw, budget))
	}
	for t := 0; t < len(s.names); t += 50 {
		if g := r.host.Guard(s.names[t]); g != nil {
			if bad := g.VerifyChain(); bad >= 0 {
				r.violations = append(r.violations, fmt.Sprintf("%s: audit chain broken at entry %d", s.names[t], bad))
			}
		}
	}
}

// observe folds one traced episode's public counters into the trace
// accumulators.
func (s *serveInst) observe(r *serveRun, virt []int64, heap0 uint64) {
	tr, reg := &s.tr, r.reg
	tr.virt = append(tr.virt, virt...)
	tr.evictions += reg.CounterValue(tenant.MetricEvictions)
	tr.reopens += reg.CounterValue(tenant.MetricReopens)
	tr.maxQueue = max(tr.maxQueue, r.host.MaxQueueDepth())
	tr.highWaterFrac = max(tr.highWaterFrac, float64(r.host.Arena().HighWater())/float64(r.host.Arena().Budget()))
	tr.pageReads += reg.CounterValue(flash.MetricPageReads)
	tr.pageWrites += reg.CounterValue(flash.MetricPageWrites)
	tr.erases += reg.CounterValue(flash.MetricBlockErases)
	r.host.ObserveGauges()
	tr.wearMax = max(tr.wearMax, reg.GaugeValue(flash.MetricWearMax))
	tr.auditEntries += reg.CounterValue(acl.MetricAuditEntries)
	if heap0 > 0 && r.liveHeap > heap0 {
		tr.heapPerTenant = float64(r.liveHeap-heap0) / float64(r.host.Tenants())
	}
}

// doMetric names the mean wall time of each request class.
var doMetric = [doClasses]string{
	doResident: "tenant.resident_do_ns", doReopen: "tenant.reopen_do_ns",
	doEvict: "tenant.evict_do_ns", doRefused: "tenant.refused_do_ns",
}

func (s *serveInst) Layers(rec *recorder, m *metricSet) error {
	tr := &s.tr
	if tr.ops == 0 {
		return errors.New("no traced episode ran")
	}
	ops := float64(tr.ops)
	wall := sortedCopy(tr.doWall)
	m.set("tenant.do_wall_p50_ns", float64(percentile(wall, 50)), len(wall))
	m.set("tenant.do_wall_p99_ns", float64(percentile(wall, 99)), len(wall))
	for class, name := range doMetric {
		m.set(name, mean(tr.classWall[class]), len(tr.classWall[class]))
	}
	m.set("tenant.evictions_per_op", float64(tr.evictions)/ops, tr.ops)
	m.set("tenant.reopens_per_op", float64(tr.reopens)/ops, tr.ops)
	m.set("tenant.queued_frac", float64(tr.queued)/ops, tr.ops)
	m.set("tenant.shed_frac", float64(tr.shed)/ops, tr.ops)
	m.set("tenant.denied_frac", float64(tr.denied)/ops, tr.ops)
	m.set("tenant.quota_frac", float64(tr.quota)/ops, tr.ops)
	m.set("tenant.max_queue_depth", float64(tr.maxQueue), tr.ops)
	m.set("tenant.ram_high_water_frac", tr.highWaterFrac, tr.ops)
	m.set("tenant.heap_bytes_per_tenant", tr.heapPerTenant, 1)
	m.set("tenant.virt_p999_us", float64(percentile(sortedCopy(tr.virt), 99.9))/1e3, len(tr.virt))
	for c := tenant.Class(0); c < tenant.NumClasses; c++ {
		v := sortedCopy(tr.classVirt[c])
		m.set("tenant.class."+c.String()+".virt_p99_us", float64(percentile(v, 99))/1e3, len(v))
	}
	m.set("tenant.sched_clamped", float64(tr.clamped), tr.ops)
	m.set("flash.page_reads_per_op", float64(tr.pageReads)/ops, tr.ops)
	m.set("flash.page_writes_per_op", float64(tr.pageWrites)/ops, tr.ops)
	m.set("flash.block_erases_per_op", float64(tr.erases)/ops, tr.ops)
	m.set("flash.wear_max", float64(tr.wearMax), tr.ops)
	m.set("acl.audit_entries_per_op", float64(tr.auditEntries)/ops, tr.ops)

	if err := s.sloLadder(rec, m); err != nil {
		return err
	}
	return s.telemetryCost(rec, m)
}

// sloLadder finds the highest arrival rate at which this workload's
// population keeps the latency and failure limits.
func (s *serveInst) sloLadder(rec *recorder, m *metricSet) error {
	sh := s.w.shape
	sh.Arrivals = min(sh.Arrivals, 6000)
	best := 0.0
	for i, rate := range sloRates {
		sh.RatePerSec = rate
		sp := rec.begin("tenant.slo_rate_per_s", 0, i)
		r, err := s.run(genArrivals(sh, episodeSeed(s.seed, -2-i)), true, nil, nil)
		rec.end(sp)
		if err != nil {
			return err
		}
		p99 := percentile(sortedCopy(r.virt), 99)
		if p99 <= sloP99NS && float64(r.refused+r.failed)/float64(r.ops) <= sloFailFrac {
			best = rate
		}
	}
	m.set("tenant.slo_rate_per_s", best, len(sloRates))
	return nil
}

// telemetryCost is the wall time per request the telemetry plane adds:
// the same schedule with the plane bound and without, interleaved.
func (s *serveInst) telemetryCost(rec *recorder, m *metricSet) error {
	arr := genArrivals(s.w.shape, episodeSeed(s.seed, 0))
	const rounds = 3
	var with, without []float64
	for i := 0; i < rounds; i++ {
		for _, tel := range []bool{true, false} {
			sp := rec.begin("tenant.telemetry_ns_per_op", 0, i)
			r, err := s.run(arr, tel, nil, nil)
			rec.end(sp)
			if err != nil {
				return err
			}
			perOp := float64(r.wall) / float64(r.ops)
			if tel {
				with = append(with, perOp)
			} else {
				without = append(without, perOp)
			}
		}
	}
	m.set("tenant.telemetry_ns_per_op", median(with)-median(without), rounds)
	return nil
}
