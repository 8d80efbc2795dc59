package tenant

import (
	"container/heap"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"pds/internal/acl"
	"pds/internal/durable"
	"pds/internal/flash"
	"pds/internal/logstore"
	"pds/internal/mcu"
	"pds/internal/obs"
)

// Metric families the host emits on its registry.
const (
	// MetricRequests counts requests by admission outcome,
	// labeled decision=admit|queued|shed|denied|quota.
	MetricRequests = "tenant_requests_total"
	// MetricClassRequests is the per-class breakdown of the same stream,
	// labeled class= and decision= — the series the SLO burn-rate
	// tracker differentiates over.
	MetricClassRequests = "tenant_class_requests_total"
	// MetricLatency is the per-class end-to-end latency histogram
	// (queue wait + service), labeled class=kv|search|embdb.
	MetricLatency = "tenant_latency_ns"
	// MetricQueueDepth is a per-class gauge of the pending queue's
	// high-water mark, labeled class=.
	MetricQueueDepth = "tenant_queue_depth"
	// MetricResident gauges how many tenants currently hold a RAM
	// reservation.
	MetricResident = "tenant_resident"
	// Lifecycle counters.
	MetricProvisions = "tenant_provisions_total"
	MetricEvictions  = "tenant_evictions_total"
	MetricReopens    = "tenant_reopens_total"
	// RAM envelope gauges, refreshed by ObserveGauges at telemetry
	// sample boundaries.
	MetricRAMHighWater = "tenant_ram_high_water_bytes"
	MetricRAMBudget    = "tenant_ram_budget_bytes"
)

// LatencyBounds is the bucket ladder of MetricLatency: doubling from
// 1µs to ~17s. Quantile estimates read the bucket upper bounds, so the
// ladder is the resolution of every reported percentile.
func LatencyBounds() []int64 {
	bounds := make([]int64, 25)
	for i := range bounds {
		bounds[i] = 1000 << i
	}
	return bounds
}

const (
	// residentBytes is the nominal RAM a resident tenant reserves —
	// ArenaBytes/residentBytes bounds simultaneous residency; everyone
	// else sits evicted on flash.
	residentBytes = 2 << 10
	// baseCPUNS is the CPU epsilon added to every executed request on
	// top of its flash I/O cost.
	baseCPUNS = 10_000
)

// HostConfig sizes one hosting daemon. The zero value is usable: every
// field defaults to the values below.
type HostConfig struct {
	// ArenaBytes is the host RAM envelope tenants' resident state is
	// carved from (default 256 KiB).
	ArenaBytes int
	// PageQuota is the per-tenant flash footprint ceiling in pages
	// (default 256 of the 1024-page tenant chip).
	PageQuota int
	// Slots is the number of concurrent execution slots per class
	// (default 4).
	Slots int
	// QueueDepth bounds the per-class pending queue (default 16);
	// arrivals beyond it are shed.
	QueueDepth int
}

func (c HostConfig) withDefaults() HostConfig {
	if c.ArenaBytes <= 0 {
		c.ArenaBytes = 256 << 10
	}
	if c.PageQuota <= 0 {
		c.PageQuota = 256
	}
	if c.Slots <= 0 {
		c.Slots = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	return c
}

// tenantGeometry is each tenant's private chip: 256 B pages, 8 per
// block, 128 blocks — at most 256 KiB, and pages materialize lazily, so
// a thousand mostly-cold tenants cost what they actually wrote.
func tenantGeometry() flash.Geometry {
	return flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 128}
}

// envelope is everything the host owns for one tenant.
type envelope struct {
	name  string
	class Class
	kind  durable.Kind
	chip  *flash.Chip
	guard *acl.Guard
	// alloc is the live store's allocator, which holds the blocks whose
	// erase is owed (nil while evicted: a reopen rebuilds it, and recovery
	// finds those blocks dirty again).
	alloc *flash.Allocator
	// idleAt is the virtual instant the chip went idle: the end of the
	// tenant's last service, or its eviction.
	idleAt int64
	// syncs counts the tenant's sync boundaries, evictions' included, and
	// owed is a reorganization one of them left owed (kind.Owes) and no
	// idle window has run yet. Both survive eviction: a reopened store
	// starts counting nothing, and pays the debt in the window after the
	// reopen.
	syncs int
	owed  bool
	// st is nil while the tenant is evicted to flash.
	st durable.Store
	// res is the tenant's slice of the host arena (the zero Reservation
	// when evicted).
	res mcu.Reservation
	// ops is the per-tenant operation counter driving Kind workloads;
	// unsynced counts how many ops ran since the last durability point.
	ops      int
	unsynced int
	// pages is the last observed flash footprint (valid when evicted).
	pages int
	// lastUsed orders LRU eviction, everOpened selects Open vs Reopen.
	lastUsed   int64
	everOpened bool
	// created is the envelope's position in Host.order (the eviction tie
	// rule); lruPos its position in Host.lru while resident.
	created int
	lruPos  int
}

// residentLRU is a min-heap of the resident envelopes keyed (lastUsed,
// creation order): its root is the tenant a scan of Host.order for the
// smallest lastUsed, first created winning ties, would find.
type residentLRU []*envelope

func (q residentLRU) Len() int { return len(q) }
func (q residentLRU) Less(i, j int) bool {
	if q[i].lastUsed != q[j].lastUsed {
		return q[i].lastUsed < q[j].lastUsed
	}
	return q[i].created < q[j].created
}
func (q residentLRU) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].lruPos, q[j].lruPos = i, j
}
func (q *residentLRU) Push(x any) {
	e := x.(*envelope)
	e.lruPos = len(*q)
	*q = append(*q, e)
}
func (q *residentLRU) Pop() any {
	old := *q
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*q = old[:len(old)-1]
	return e
}

// classState is one class's admission plane, in virtual time: each slot
// holds its busy-until instant, pending holds the start instants of
// queued requests that have not begun by "now".
type classState struct {
	slots    []int64
	pending  []int64
	maxQueue int
}

// prune drops queued entries whose start has passed — they occupy a
// slot now, not the queue.
func (cs *classState) prune(now int64) {
	keep := cs.pending[:0]
	for _, s := range cs.pending {
		if s > now {
			keep = append(keep, s)
		}
	}
	cs.pending = keep
}

// admit assigns a start time: the earliest-free slot if idle, else the
// back of the bounded queue. ok=false means shed.
func (cs *classState) admit(now int64, depth int) (slot int, start int64, ok bool) {
	slot = 0
	for i := 1; i < len(cs.slots); i++ {
		if cs.slots[i] < cs.slots[slot] {
			slot = i
		}
	}
	if cs.slots[slot] <= now {
		return slot, now, true
	}
	if len(cs.pending) >= depth {
		return 0, 0, false
	}
	start = cs.slots[slot]
	cs.pending = append(cs.pending, start)
	if len(cs.pending) > cs.maxQueue {
		cs.maxQueue = len(cs.pending)
	}
	return slot, start, true
}

// Host multiplexes tenant envelopes behind the typed request API. It is
// single-threaded by design: requests execute serially in arrival
// order under the virtual clock, which is what makes the decision
// stream reproducible. Wrap it in a mutex if a transport ever feeds it
// from multiple goroutines.
type Host struct {
	cfg     HostConfig
	reg     *obs.Registry
	model   flash.CostModel
	arena   *mcu.Arena
	tenants map[string]*envelope
	// order preserves creation order (the wear scan, the eviction tie
	// rule); lru indexes the resident envelopes by eviction priority.
	order   []*envelope
	lru     residentLRU
	classes [NumClasses]classState
	// digest hashes the one-byte-per-request admission stream
	// incrementally, through digestIn.
	digest   hash.Hash
	digestIn [1]byte
	nowNS    int64
	// Handles on the host's own series, bound at the first event of each:
	// a series enters the registry (and every snapshot and window digest
	// after it) when its event first happens, as it always did.
	met hostMetrics
	// attr, when set, receives per-tenant heavy-hitter credit (service
	// time, sheds, reopen I/O). Nil by default — attribution is a
	// telemetry concern the host stays agnostic of.
	attr *Attribution
}

// hostMetrics caches the registry handles of the request path, so that a
// request builds no series name and looks nothing up.
type hostMetrics struct {
	requests      [numDecisions]*obs.Counter
	classRequests [NumClasses][numDecisions]*obs.Counter
	latency       [NumClasses]*obs.Histogram
	queueDepth    [NumClasses]*obs.Gauge
	resident      *obs.Gauge
	evictions     *obs.Counter
	reopens       *obs.Counter
}

// storeCollection is the acl collection a class's requests address.
var storeCollection = func() (c [NumClasses]string) {
	for i := range c {
		c[i] = "store/" + Class(i).String()
	}
	return c
}()

// NewHost builds a hosting daemon metering into reg (required — the
// host's observability is not optional; pass obs.NewRegistry() if the
// caller has none).
func NewHost(cfg HostConfig, reg *obs.Registry) *Host {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	h := &Host{
		cfg:     cfg.withDefaults(),
		reg:     reg,
		model:   flash.DefaultCostModel(),
		tenants: make(map[string]*envelope),
	}
	h.arena = mcu.NewArena(h.cfg.ArenaBytes)
	for c := range h.classes {
		h.classes[c].slots = make([]int64, h.cfg.Slots)
	}
	h.digest = sha256.New()
	return h
}

// Arena exposes the host RAM envelope (budget, usage, high-water).
func (h *Host) Arena() *mcu.Arena { return h.arena }

// Digest returns the SHA-256 of the admission stream so far: one byte per
// request, its Response.Decision, in arrival order. Two runs over the
// same schedule must agree on it.
func (h *Host) Digest() string { return hex.EncodeToString(h.digest.Sum(nil)) }

// NowNS is the host's virtual clock (the latest arrival seen).
func (h *Host) NowNS() int64 { return h.nowNS }

// Tenants returns how many envelopes exist.
func (h *Host) Tenants() int { return len(h.order) }

// setResident publishes the resident count.
func (h *Host) setResident() {
	if h.met.resident == nil {
		h.met.resident = h.reg.Gauge(MetricResident)
	}
	h.met.resident.Set(int64(len(h.lru)))
}

// MaxQueueDepth reports the deepest any class queue got.
func (h *Host) MaxQueueDepth() int {
	m := 0
	for c := range h.classes {
		if h.classes[c].maxQueue > m {
			m = h.classes[c].maxQueue
		}
	}
	return m
}

// Guard exposes a tenant's guard (nil if never provisioned) — tests
// verify audit chains through it.
func (h *Host) Guard(tenantName string) *acl.Guard {
	if e, ok := h.tenants[tenantName]; ok {
		return e.guard
	}
	return nil
}

// SetAttribution attaches (or, with nil, detaches) the heavy-hitter
// accounting plane.
func (h *Host) SetAttribution(a *Attribution) { h.attr = a }

// ObserveGauges refreshes the scanned-not-maintained gauges: fleet
// flash wear and the RAM envelope. One pass over every tenant chip's
// block counters — priced for telemetry sample boundaries (call it from
// a Window's OnBeforeSample hook), not per-request paths.
func (h *Host) ObserveGauges() {
	var w flash.WearStats
	for _, e := range h.order {
		w = w.Add(e.chip.WearSummary())
	}
	h.reg.Gauge(flash.MetricWearMax).Set(w.Max)
	h.reg.Gauge(flash.MetricWearMeanMilli).Set(w.MeanMilli())
	h.setResident()
	h.reg.Gauge(MetricRAMHighWater).Set(int64(h.arena.HighWater()))
	h.reg.Gauge(MetricRAMBudget).Set(int64(h.arena.Budget()))
}

func (h *Host) note(d Decision, class Class) {
	h.digestIn[0] = byte(d)
	h.digest.Write(h.digestIn[:])
	i := d.index()
	if h.met.requests[i] == nil {
		h.met.requests[i] = h.reg.Counter(MetricRequests, "decision", d.String())
	}
	h.met.requests[i].Inc()
	if h.met.classRequests[class][i] == nil {
		h.met.classRequests[class][i] = h.reg.Counter(MetricClassRequests, "class", class.String(), "decision", d.String())
	}
	h.met.classRequests[class][i].Inc()
}

// resolve returns the tenant's envelope, provisioning one on first
// touch: a private chip, a deny-by-default policy that allows only the
// owner's "serve"-purpose access to the store collections, and an audit
// log on the host's simulated clock.
func (h *Host) resolve(name string, class Class) (*envelope, error) {
	if e, ok := h.tenants[name]; ok {
		if e.class != class {
			return nil, fmt.Errorf("tenant %q is class %v, not %v", name, e.class, class)
		}
		return e, nil
	}
	kind, ok := class.Kind()
	if !ok {
		return nil, fmt.Errorf("tenant %q: unknown class %v", name, class)
	}
	chip := flash.NewChip(tenantGeometry())
	chip.SetObserver(h.reg)
	g := acl.NewGuard()
	g.Policy.Add(acl.Rule{Subject: name, Collection: "store/*", Purpose: "serve", Allow: true})
	g.Policy.Add(acl.Rule{Purpose: "marketing", Allow: false})
	g.Observe(h.reg)
	e := &envelope{name: name, class: class, kind: kind, chip: chip, guard: g, created: len(h.order)}
	h.tenants[name] = e
	h.order = append(h.order, e)
	h.reg.Counter(MetricProvisions).Inc()
	return e, nil
}

// evictOne pushes the least-recently-used resident tenant to flash: sync
// (durability point), close (volatile release), free its arena slice.
// Returns false when nothing is evictable. The tenant being made resident
// holds no reservation yet, so it is never the victim.
func (h *Host) evictOne(at int64) (bool, error) {
	if len(h.lru) == 0 {
		return false, nil
	}
	victim := h.lru[0]
	if victim.st != nil {
		if victim.unsynced > 0 {
			if err := h.sync(victim); err != nil {
				return false, fmt.Errorf("evict %s: %w", victim.name, err)
			}
		}
		if err := h.payAtQuota(victim); err != nil {
			return false, fmt.Errorf("evict %s: %w", victim.name, err)
		}
		if err := victim.st.Close(); err != nil {
			return false, fmt.Errorf("evict %s: close: %w", victim.name, err)
		}
		victim.pages = victim.st.Pages()
		victim.st, victim.alloc = nil, nil
	}
	victim.res.Release()
	victim.idleAt = max(victim.idleAt, at)
	heap.Pop(&h.lru)
	if h.met.evictions == nil {
		h.met.evictions = h.reg.Counter(MetricEvictions)
	}
	h.met.evictions.Inc()
	h.setResident()
	return true, nil
}

// makeResident gives the envelope RAM and a live store, evicting LRU
// tenants as needed at virtual instant at. Reopen goes through the same
// log-replay recovery a power cycle uses — eviction leaves nothing behind
// that a crash wouldn't also preserve.
func (h *Host) makeResident(e *envelope, at int64) error {
	if e.res == (mcu.Reservation{}) {
		for {
			if res, ok := h.arena.TryReserve(residentBytes); ok {
				e.res = res
				heap.Push(&h.lru, e)
				break
			}
			ok, everr := h.evictOne(at)
			if everr != nil {
				return everr
			}
			if !ok {
				return fmt.Errorf("tenant %s: arena exhausted with no evictable tenant: %w: want %d, used %d of %d",
					e.name, mcu.ErrOutOfRAM, residentBytes, h.arena.Used(), h.arena.Budget())
			}
		}
		h.setResident()
	}
	if e.st != nil {
		return nil
	}
	if !e.everOpened {
		alloc := flash.NewAllocator(e.chip)
		st, err := e.kind.Open(alloc)
		if err != nil {
			return fmt.Errorf("tenant %s: open: %w", e.name, err)
		}
		e.st, e.alloc = st, alloc
		e.everOpened = true
		return nil
	}
	before := e.chip.Stats()
	rec, err := logstore.Recover(e.chip, nil)
	if err != nil {
		return fmt.Errorf("tenant %s: recover: %w", e.name, err)
	}
	st, err := e.kind.Reopen(rec)
	if err != nil {
		return fmt.Errorf("tenant %s: reopen: %w", e.name, err)
	}
	e.st, e.alloc = st, rec.Alloc
	if h.met.reopens == nil {
		h.met.reopens = h.reg.Counter(MetricReopens)
	}
	h.met.reopens.Inc()
	if h.attr != nil {
		io := e.chip.Stats().Sub(before)
		h.attr.AddReopenIO(e.name, io.PageReads+io.PageWrites)
	}
	return nil
}

// sync is the tenant's durability point. The reorganization the
// boundary may owe joins the envelope's debt.
func (h *Host) sync(e *envelope) error {
	if err := e.st.Sync(); err != nil {
		return fmt.Errorf("sync: %w", err)
	}
	e.unsynced = 0
	e.syncs++
	e.owed = e.owed || e.kind.Owes(e.syncs)
	return nil
}

// payAtQuota runs the envelope's owed reorganization on the spot when
// its footprint is at the quota. It runs wherever the footprint the
// quota verdict reads is recorded — the end of a request, an eviction —
// because the verdict must see the footprint after the reorganization
// and a refused request never reaches an idle window.
func (h *Host) payAtQuota(e *envelope) error {
	if e.owed && e.st.Pages() >= h.cfg.PageQuota {
		return e.reorganize()
	}
	return nil
}

// reorganize pays the envelope's reorganization debt.
func (e *envelope) reorganize() error {
	if err := e.st.Reorganize(); err != nil {
		return fmt.Errorf("reorganize: %w", err)
	}
	e.owed = false
	return nil
}

// background spends the chip's idle time [e.idleAt, start) on the work
// the tenant's store owes: first the reorganization a sync boundary left
// owed, then retire's erases, which then include the blocks the
// reorganization freed. Its I/O is priced under the cost model from
// e.idleAt on, outside the request's service. A reorganization still
// running at start cannot be preempted: the request waits out its
// remainder, which background returns, and no erase starts. A chip still
// busy at start starts nothing, and the debt stays owed. A store this
// request has just reopened keeps its debt for the next window: the one
// before the reopen had no store in RAM to run it on.
func (h *Host) background(e *envelope, start int64, reopened bool) (wait int64, err error) {
	if e.owed && !reopened && start > e.idleAt {
		before := e.chip.Stats()
		if err := e.reorganize(); err != nil {
			return 0, fmt.Errorf("tenant %s: %w", e.name, err)
		}
		e.idleAt += e.chip.Stats().Sub(before).Cost(h.model).Nanoseconds()
		if e.idleAt >= start {
			return e.idleAt - start, nil
		}
	}
	return h.retire(e, start)
}

// retire spends the chip's idle time [e.idleAt, start) on the erases its
// stores owe, newest first — the order Alloc hands freed blocks out, so
// the blocks the next requests allocate are the ones erased — one
// EraseBlock latency each; the journal's stale block is among them, so a
// ping-pong commit finds it erased. That I/O is background work, outside
// the request's service. An erase still running at start cannot be
// preempted, so the request waits out its remainder, which retire
// returns. A chip still busy at start with the tenant's earlier request
// starts no erase.
func (h *Host) retire(e *envelope, start int64) (wait int64, err error) {
	if start <= e.idleAt {
		return 0, nil
	}
	eraseNS := h.model.EraseBlock.Nanoseconds()
	n, err := e.alloc.EraseDirty(int((start - e.idleAt + eraseNS - 1) / eraseNS))
	if err != nil {
		return 0, fmt.Errorf("tenant %s: erase: %w", e.name, err)
	}
	return max(0, e.idleAt+int64(n)*eraseNS-start), nil
}

// Do serves one request through the full hosted path: provision →
// policy guard (audited) → page quota → admission → execute. Refusals
// return a typed error (ErrDenied, ErrQuota, ErrShed) alongside the
// Response; any other error is an internal hosting fault.
func (h *Host) Do(req Request) (Response, error) {
	if req.AtNS < h.nowNS {
		req.AtNS = h.nowNS
	}
	h.reg.Clock().Advance(time.Duration(req.AtNS - h.nowNS))
	h.nowNS = req.AtNS
	now := req.AtNS
	resp := Response{StartNS: now, EndNS: now}

	e, err := h.resolve(req.Tenant, req.Class)
	if err != nil {
		return resp, err
	}

	// The guard sees every request, before any resource is touched.
	subject := req.Subject
	if subject == "" {
		subject = e.name
	}
	q := acl.Request{
		Subject:    subject,
		Role:       req.Role,
		Collection: storeCollection[e.class],
		Action:     acl.Write,
		Purpose:    req.Purpose,
	}
	if !e.guard.Check(q) {
		resp.Decision = DecisionDenied
		h.note(DecisionDenied, e.class)
		return resp, ErrDenied
	}

	if e.pages >= h.cfg.PageQuota {
		resp.Decision = DecisionQuota
		resp.Pages = e.pages
		h.note(DecisionQuota, e.class)
		return resp, ErrQuota
	}

	cs := &h.classes[e.class]
	cs.prune(now)
	slot, start, ok := cs.admit(now, h.cfg.QueueDepth)
	if !ok {
		resp.Decision = DecisionShed
		h.note(DecisionShed, e.class)
		if h.attr != nil {
			h.attr.AddShed(e.name)
		}
		return resp, ErrShed
	}

	// Execute serially; virtual service time is the request's flash I/O
	// under the NAND cost model plus a CPU epsilon, after any wait for
	// background work of the chip's idle time. A reopen-on-demand pays
	// its recovery I/O here, visible in the tail.
	before := e.chip.Stats()
	reopened := e.st == nil
	if err := h.makeResident(e, start); err != nil {
		return resp, err
	}
	// The idle window precedes the request: its reorganization and erases
	// shift the baseline instead of entering the request's I/O. Erases may
	// follow a reopen, because nothing it reads depends on whether a dirty
	// block was erased yet; a reorganization never does.
	idle := e.chip.Stats()
	wait, err := h.background(e, start, reopened)
	if err != nil {
		return resp, err
	}
	before = before.Add(e.chip.Stats().Sub(idle))
	if err := e.st.Apply(e.ops); err != nil {
		return resp, fmt.Errorf("tenant %s: op %d: %w", e.name, e.ops, err)
	}
	e.ops++
	e.unsynced++
	if e.unsynced >= e.kind.SyncEvery {
		if err := h.sync(e); err != nil {
			return resp, fmt.Errorf("tenant %s: %w", e.name, err)
		}
	}
	if err := h.payAtQuota(e); err != nil {
		return resp, fmt.Errorf("tenant %s: %w", e.name, err)
	}
	svc := wait + e.chip.Stats().Sub(before).Cost(h.model).Nanoseconds() + baseCPUNS
	cs.slots[slot] = start + svc
	e.idleAt = max(e.idleAt, start+svc)
	e.pages = e.st.Pages()
	e.lastUsed = now
	heap.Fix(&h.lru, e.lruPos)

	resp.Pages = e.pages
	resp.StartNS = start
	resp.EndNS = start + svc
	resp.ServiceNS = svc
	resp.QueueNS = start - now
	resp.LatencyNS = resp.QueueNS + svc
	if start == now {
		resp.Decision = DecisionAdmit
		h.note(DecisionAdmit, e.class)
	} else {
		resp.Decision = DecisionQueued
		h.note(DecisionQueued, e.class)
	}
	if h.attr != nil {
		h.attr.AddService(e.name, svc)
	}
	if h.met.latency[e.class] == nil {
		h.met.latency[e.class] = h.reg.Histogram(MetricLatency, LatencyBounds(), "class", e.class.String())
		h.met.queueDepth[e.class] = h.reg.Gauge(MetricQueueDepth, "class", e.class.String())
	}
	h.met.latency[e.class].Observe(resp.LatencyNS)
	h.met.queueDepth[e.class].Set(int64(cs.maxQueue))
	return resp, nil
}
