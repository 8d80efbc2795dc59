package tenant

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Per-tenant attribution: which tenants are eating the host. A million
// tenants must never mint a million metric names, so attribution runs
// through a bounded Space-Saving heavy-hitter sketch per dimension
// (service time, sheds, reopen I/O) and is rendered as rank-labeled
// series at scrape time — cardinality is capped at K per dimension no
// matter the population.

// HotTenant is one heavy-hitter entry: an estimated total plus the
// Space-Saving overestimation bound (Value is exact when Err is 0,
// otherwise the true total lies in [Value-Err, Value]).
type HotTenant struct {
	Tenant string `json:"tenant"`
	Value  int64  `json:"value"`
	Err    int64  `json:"err,omitempty"`
}

// topEntry is one monitored key in the sketch.
type topEntry struct {
	key   string
	count int64
	err   int64
}

// topK is a Space-Saving sketch: at most k monitored keys; an unseen key
// arriving at capacity replaces the minimum, inheriting its count as the
// overestimation bound. Eviction ties break on key order so two
// same-seed runs agree on the survivors. The entries are kept by value
// in k slots allocated once; k is small, so a key is found by a scan.
type topK struct {
	slots []topEntry // len <= cap == k
}

func newTopK(k int) *topK {
	return &topK{slots: make([]topEntry, 0, k)}
}

// find returns the slot monitoring key, or -1.
func (t *topK) find(key string) int {
	for i := range t.slots {
		if t.slots[i].key == key {
			return i
		}
	}
	return -1
}

func (t *topK) add(key string, inc int64) {
	if i := t.find(key); i >= 0 {
		t.slots[i].count += inc
		return
	}
	if len(t.slots) < cap(t.slots) {
		t.slots = append(t.slots, topEntry{key: key, count: inc})
		return
	}
	// Replace the minimum (by count, then key), inheriting its count.
	m := 0
	for i := 1; i < len(t.slots); i++ {
		e, min := &t.slots[i], &t.slots[m]
		if e.count < min.count || (e.count == min.count && e.key < min.key) {
			m = i
		}
	}
	c := t.slots[m].count
	t.slots[m] = topEntry{key: key, count: c + inc, err: c}
}

// top returns the monitored keys sorted by estimated value (desc), then
// key (asc) — a deterministic ranking.
func (t *topK) top() []HotTenant {
	out := make([]HotTenant, 0, len(t.slots))
	for _, e := range t.slots {
		out = append(out, HotTenant{Tenant: e.key, Value: e.count, Err: e.err})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Value != out[j].Value {
			return out[i].Value > out[j].Value
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// AttributionView is the ranked output of every dimension.
type AttributionView struct {
	// ServiceNS ranks tenants by accumulated service time.
	ServiceNS []HotTenant `json:"service_ns"`
	// Sheds ranks tenants by refused-at-admission count.
	Sheds []HotTenant `json:"sheds"`
	// ReopenIO ranks tenants by flash I/O spent replaying their journal
	// on reopen — the cost of being evicted while active.
	ReopenIO []HotTenant `json:"reopen_io"`
}

// Attribution is the per-tenant accounting plane the host feeds. Safe
// for concurrent use: the serve loop writes while scrape handlers read.
type Attribution struct {
	mu      sync.Mutex
	service *topK
	sheds   *topK
	reopen  *topK
}

// hotTenants is how many tenants each dimension's sketch monitors.
const hotTenants = 8

// NewAttribution builds a sketch set monitoring at most hotTenants
// tenants per dimension.
func NewAttribution() *Attribution {
	return &Attribution{service: newTopK(hotTenants), sheds: newTopK(hotTenants), reopen: newTopK(hotTenants)}
}

// AddService credits ns of service time to a tenant.
func (a *Attribution) AddService(tenant string, ns int64) {
	a.mu.Lock()
	a.service.add(tenant, ns)
	a.mu.Unlock()
}

// AddShed counts one shed refusal against a tenant.
func (a *Attribution) AddShed(tenant string) {
	a.mu.Lock()
	a.sheds.add(tenant, 1)
	a.mu.Unlock()
}

// AddReopenIO credits page I/Os spent reopening a tenant's store.
func (a *Attribution) AddReopenIO(tenant string, pages int64) {
	if pages <= 0 {
		return
	}
	a.mu.Lock()
	a.reopen.add(tenant, pages)
	a.mu.Unlock()
}

// Top returns the ranked view of every dimension.
func (a *Attribution) Top() AttributionView {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AttributionView{
		ServiceNS: a.service.top(),
		Sheds:     a.sheds.top(),
		ReopenIO:  a.reopen.top(),
	}
}

// Heavy-hitter exposition families (rank-labeled, cardinality <= K).
const (
	MetricHotService = "tenant_hot_service_ns"
	MetricHotSheds   = "tenant_hot_sheds"
	MetricHotReopen  = "tenant_hot_reopen_io"
)

// PrometheusText renders the sketches as rank-labeled gauges, generated
// at scrape time rather than registered — the registry never learns a
// tenant-labeled name, which is what keeps fleet cardinality bounded.
func (a *Attribution) PrometheusText() string {
	v := a.Top()
	var b strings.Builder
	dim := func(family string, rows []HotTenant) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&b, "# TYPE %s gauge\n", family)
		for i, r := range rows {
			fmt.Fprintf(&b, "%s{rank=%q,tenant=%q} %d\n", family, fmt.Sprint(i), r.Tenant, r.Value)
		}
	}
	dim(MetricHotService, v.ServiceNS)
	dim(MetricHotSheds, v.Sheds)
	dim(MetricHotReopen, v.ReopenIO)
	return b.String()
}
