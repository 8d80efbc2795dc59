package main

// metricDef names one reported number. The tables below are the single
// source of the benchmark's vocabulary: BENCHMARK.json mirrors them (a
// test keeps the two equal), README.md explains them, and every later
// issue states its prediction in these names.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64
}

// Units of the paper's clock. They are spelled apart from wall-clock
// units because a virtual latency is a count priced by a cost model: it
// repeats exactly, where a wall time never does.
const (
	virtUS = "virt_us"
	virtMS = "virt_ms"
)

// endToEnd is what a user of the system sees, reported for every
// workload. virt_* are on the paper's clock and repeat exactly for one
// seed and episode count; the others are on the Go process's clock. The
// bounds are sized from measured spreads over ten seeds on the shared
// 2-vCPU reference box (README.md has the table): each is at least three
// times the widest spread seen there, and the wall-clock one is the
// contract's maximum because the driver's box is several times noisier.
// wall_ops_per_s and setup_s are read on the process's CPU clock and scaled
// to a machine at nominal speed (endToEndMetrics and speed.go say why).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_ops_per_s", "ops/s", "higher", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"alloc_bytes_per_op", "B", "lower", 0.03},
	{"live_heap_mib", "MiB", "lower", 0.10},
	{"virt_p50_us", virtUS, "lower", 0.06},
	{"virt_p99_us", virtUS, "lower", 0.20},
	{"virt_mean_us", virtUS, "lower", 0.10},
	{"ok_frac", "ratio", "higher", 0.01},
}

// exactMetrics repeat bit for bit across runs of one commit with one
// seed and episode count on the deterministic workloads, so -compare
// holds them to equality there.
var exactMetrics = map[string]bool{
	"virt_p50_us": true, "virt_p99_us": true, "virt_mean_us": true, "ok_frac": true,
}

func layerDefs() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// flash
	add("count", "lower", "flash.page_reads_per_op", "flash.page_writes_per_op",
		"flash.block_erases_per_op", "flash.wear_max")
	add("ns", "lower", "flash.read_page_ns", "flash.write_page_ns", "flash.erase_block_ns")
	// logstore
	add("ns", "lower", "logstore.append_ns", "logstore.journal_commit_ns",
		"logstore.sort_ns_per_record", "logstore.recover_ns")
	add("count", "lower", "logstore.recover_page_reads")
	// kv, search, embdb: write side, then read side
	add("ns", "lower", "kv.put_ns", "kv.compact_ns", "search.add_ns", "search.reorganize_ns")
	add("count", "lower", "search.reorganize_page_io")
	add("ns", "lower", "embdb.insert_ns", "kv.get_ns")
	add("count", "lower", "kv.get_key_pages", "kv.get_false_probes")
	add("ns", "lower", "search.search_ns")
	add("count", "lower", "search.search_page_reads")
	add("ns", "lower", "embdb.star_ns")
	add("count", "lower", "embdb.star_page_reads", "embdb.star_tuples_fetched")
	// durable, one canonical op script per kind
	for _, k := range []string{"kv", "search", "embdb"} {
		add("ns", "lower", "durable."+k+".apply_ns", "durable."+k+".sync_ns")
		add("count", "lower", "durable."+k+".sync_page_io")
		add("ns", "lower", "durable."+k+".reopen_ns")
	}
	// acl
	add("ns", "lower", "acl.check_ns")
	add("count", "lower", "acl.audit_entries_per_op")
	add("ns", "lower", "acl.verify_ns_per_entry")
	// tenant
	add("ns", "lower", "tenant.do_wall_p50_ns", "tenant.do_wall_p99_ns", "tenant.resident_do_ns",
		"tenant.reopen_do_ns", "tenant.evict_do_ns", "tenant.refused_do_ns")
	add("count", "lower", "tenant.evictions_per_op", "tenant.reopens_per_op")
	add("ratio", "lower", "tenant.queued_frac", "tenant.shed_frac", "tenant.denied_frac", "tenant.quota_frac")
	add("count", "lower", "tenant.max_queue_depth")
	add("ratio", "lower", "tenant.ram_high_water_frac")
	add("B", "lower", "tenant.heap_bytes_per_tenant")
	add(virtUS, "lower", "tenant.virt_p999_us", "tenant.class.kv.virt_p99_us",
		"tenant.class.search.virt_p99_us", "tenant.class.embdb.virt_p99_us")
	add("1/s", "higher", "tenant.slo_rate_per_s")
	add("ns", "lower", "tenant.telemetry_ns_per_op")
	add("count", "lower", "tenant.sched_clamped")
	// obs
	add("ns", "lower", "obs.window_advance_ns", "obs.window_sample_ns", "obs.counter_inc_ns")
	// privcrypto
	add("ns", "lower", "privcrypto.nondet_encrypt_ns", "privcrypto.nondet_decrypt_ns",
		"privcrypto.det_encrypt_ns", "privcrypto.mac_ns")
	add("count", "lower", "privcrypto.mac_allocs")
	add("us", "lower", "privcrypto.paillier_encrypt_us", "privcrypto.paillier_decrypt_us",
		"privcrypto.paillier_add_us")
	// gquery
	add("ms", "lower", "gquery.secureagg_ms", "gquery.noise_ms", "gquery.histogram_ms", "gquery.paillier_agg_ms")
	add(virtMS, "lower", "gquery.phase.collect-encrypt.virt_ms", "gquery.phase.ssi-partition.virt_ms",
		"gquery.phase.token-fold.virt_ms", "gquery.phase.merge-verify.virt_ms")
	add("count", "lower", "gquery.chunks_per_op", "gquery.worker_calls_per_op", "gquery.fake_tuples_per_op")
	add("1/s", "higher", "gquery.stream_tuples_per_s")
	add("ratio", "higher", "gquery.fleet_speedup")
	// netsim
	add("count", "lower", "netsim.messages_per_op")
	add("B", "lower", "netsim.bytes_per_op")
	add("ns", "lower", "netsim.send_ns", "netsim.link_transfer_ns")
	add("count", "lower", "netsim.retransmits_per_op", "netsim.acks_per_op", "netsim.tag_failures_per_op")
	add(virtMS, "lower", "netsim.backoff_virt_ms_per_op")
	add("ratio", "higher", "netsim.first_attempt_frac")
	// transport
	add("us", "lower", "transport.tcp_send_us")
	add("1/s", "higher", "transport.tcp_msgs_per_s")
	add("count", "lower", "transport.frames_received_per_op")
	add("ratio", "lower", "transport.tcp_vs_netsim_wall_ratio")
	// ssi
	add("ns", "lower", "ssi.receive_ns", "ssi.partition_ns", "ssi.hash_id_ns")
	// bench
	add("ratio", "lower", "bench.trace_overhead_frac", "bench.fail_frac")
	add("us", "lower", "bench.cpu_us_per_op")
	add("ops/s", "higher", "bench.elapsed_ops_per_s")
	return defs
}

// perLayer is the traced pass's vocabulary: one entry per layer number.
var perLayer = layerDefs()

// value is one measured metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples behind the value (episodes for episode
	// medians, ops for pooled percentiles, calls for probe means).
	N int `json:"n"`
	// Q1 and Q3 are the quartiles over episodes of an episode median, over
	// blocks of wall_ops_per_s and over set-ups of setup_s — the run's own
	// noise floor.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// metricSet collects values by name and rejects a name set twice, so
// "emitted exactly once" is a property of the harness, not of a test.
type metricSet struct {
	vals map[string]value
	dup  []string
}

func newMetricSet() *metricSet { return &metricSet{vals: map[string]value{}} }

func (m *metricSet) put(name string, v value) {
	if _, ok := m.vals[name]; ok {
		m.dup = append(m.dup, name)
	}
	m.vals[name] = v
}

// set records a plain number with its sample count; the unit comes from
// the tables above when the set is finalized.
func (m *metricSet) set(name string, v float64, n int) { m.put(name, value{Value: v, N: n}) }

// scale converts a recorded value's unit (probes time in ns).
func (m *metricSet) scale(name string, f float64) {
	v := m.vals[name]
	v.Value *= f
	m.vals[name] = v
}

// fill copies the values of o that m does not have yet.
func (m *metricSet) fill(o *metricSet) {
	for name, v := range o.vals {
		if _, ok := m.vals[name]; !ok {
			m.vals[name] = v
		}
	}
}
