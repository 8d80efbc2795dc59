package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// A run sets a workload up at least minSetupRuns times, and up to
// maxSetupRuns while the set-ups so far took less than setupBudget:
// setup_s is the median, and a set-up of a few tens of milliseconds needs
// more samples than one of half a second to hold still.
const (
	minSetupRuns = 5
	maxSetupRuns = 15
	setupBudget  = time.Second
)

// workload is one named set of inputs. Setup builds everything the
// episodes share and generates (and digests) the inputs of the nominal
// episodes; it is untimed work, reported as setup_s.
type workload interface {
	Name() string
	Why() string
	// Episodes is the nominal episode count R of a run that is not
	// time-boxed.
	Episodes() int
	Setup(seed int64) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	InputDigest() string
	// Episode runs one episode on a fresh system under test and times
	// only the ops.
	Episode(c *epCtx) (epOut, error)
	// Layers writes the per-layer numbers the traced episodes gathered,
	// after whatever workload-specific probes complete them.
	Layers(rec *recorder, m *metricSet) error
	Close() error
}

// epCtx is what the runner hands an episode.
type epCtx struct {
	ep int
	// rec is nil on the measured pass: tracing off.
	rec *recorder
	// heap asks the episode to measure the live heap when its ops are
	// done, with the system under test still reachable.
	heap bool
	// virt is the pooled virtual-latency sample the episode appends to.
	virt []int64
}

// epOut is what one episode reports back.
type epOut struct {
	ops     int           // attempted
	refused int           // refused or aborted by design: shed, quota, typed abort
	failed  int           // errors and wrong outputs: a defect, never load
	wall    time.Duration // elapsed
	cpu     time.Duration // the process's user+system CPU time
	mallocs uint64
	bytes   uint64
	// digest pins the episode's outputs; the measured and the traced
	// pass must agree on it.
	digest     string
	liveHeap   uint64
	virt       []int64
	violations []string
}

// meter times a region, elapsed and on the process's CPU clock, and counts
// its allocations.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	m0   runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.m0)
	m.cpu0 = cpuTime()
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(out *epOut) {
	out.wall = time.Since(m.t0)
	out.cpu = cpuTime() - m.cpu0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m.m0.Mallocs
	out.bytes = m1.TotalAlloc - m.m0.TotalAlloc
}

// liveHeap is HeapAlloc after two forced collections: sync.Pool contents
// survive the first.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass is the outcome of one pass over a workload's episodes.
type pass struct {
	episodes []epOut
	// blocks are the throughput samples of a measured pass.
	blocks     []block
	virt       []int64
	cpu        time.Duration
	violations []string
}

func (p *pass) totals() (ops, refused, failed int) {
	for _, e := range p.episodes {
		ops += e.ops
		refused += e.refused
		failed += e.failed
	}
	return
}

// perOp returns f(episode)/ops for every episode.
func (p *pass) perOp(f func(e epOut) float64) []float64 {
	out := make([]float64, 0, len(p.episodes))
	for _, e := range p.episodes {
		if e.ops > 0 {
			out = append(out, f(e)/float64(e.ops))
		}
	}
	return out
}

// virtPoolCap is the room of a pass's off-heap pool of virtual latencies:
// 128 MiB of address space, touched only as far as it fills; the fastest
// workload completes some 12 million ops in the longest run.
const virtPoolCap = 1 << 24

// minBlock is the least CPU time of one throughput sample. An episode of
// the fastest workload takes 20 ms and the collector runs every 12 ms or
// so; a quarter of a second holds twenty collections, so no sample is fast
// by having dodged them.
const minBlock = 250 * time.Millisecond

// block is one throughput sample of the measured pass: consecutive
// episodes of at least minBlock of CPU time, and how much slower than
// nominal the speed probe found the machine around them.
type block struct {
	ops      int
	cpu      time.Duration
	slowdown float64
}

// runPass runs episodes 0,1,2,... of inst: n of them, or, when seconds is
// positive, as many as fit in that much elapsed time (at least three, so
// the quartiles exist). With a recorder the episodes run traced; with a
// speed probe the pass is cut into blocks.
func runPass(inst instance, n int, seconds float64, rec *recorder, probe *speedProbe) (*pass, error) {
	p := &pass{}
	pool, release, err := offHeapInt64s(virtPoolCap)
	if err != nil {
		return nil, fmt.Errorf("virtual-latency pool: %w", err)
	}
	defer release()
	p.virt = pool
	runtime.GC()
	var before speedSample
	if probe != nil {
		before = probe.sample()
	}
	var cur block
	closeBlock := func() {
		after := probe.sample()
		cur.slowdown = math.Sqrt(before.slowdown() * after.slowdown())
		p.blocks = append(p.blocks, cur)
		cur, before = block{}, after
	}
	start := time.Now()
	cpu0 := cpuTime()
	for ep := 0; ; ep++ {
		if seconds > 0 {
			if ep >= 3 && time.Since(start).Seconds() >= seconds {
				break
			}
		} else if ep >= n {
			break
		}
		out, err := inst.Episode(&epCtx{ep: ep, rec: rec, heap: ep == 0, virt: p.virt})
		if err != nil {
			return nil, fmt.Errorf("episode %d: %w", ep, err)
		}
		p.virt = out.virt
		out.virt = nil
		for _, v := range out.violations {
			p.violations = append(p.violations, fmt.Sprintf("episode %d: %s", ep, v))
		}
		p.episodes = append(p.episodes, out)
		cur.ops += out.ops
		cur.cpu += out.cpu
		if probe != nil && cur.cpu >= minBlock {
			closeBlock()
		}
	}
	if probe != nil && len(p.blocks) == 0 && cur.cpu > 0 {
		closeBlock() // a pass shorter than one block is one block
	}
	p.cpu = cpuTime() - cpu0
	p.virt = slices.Clone(p.virt) // onto the heap: the pool is unmapped on return
	return p, nil
}

// options selects what one run does.
type options struct {
	seed    int64
	seconds float64 // 0: nominal episode counts
	// measured and traced select the passes; both by default.
	measured, traced bool
	traceDir         string
	// tiny shrinks every workload to one small episode (tests).
	tiny bool
}

// workloadResult is one workload's row of a report.
type workloadResult struct {
	Name        string           `json:"name"`
	InputDigest string           `json:"input_digest"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Episodes    int              `json:"episodes"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	Violations  []string         `json:"violations,omitempty"`
}

// session is one invocation of the benchmark. The reference episodes and
// the layer probes measure the commit, not a workload, so a session runs
// them once and every workload's per-layer set shares the numbers.
type session struct {
	opt    options
	shared *metricSet
}

// runWorkload sets w up, runs the selected passes and gathers the
// metrics. A correctness violation is reported in the result, not as an
// error: the caller prints what it has and exits non-zero.
func (s *session) runWorkload(w workload) (*workloadResult, error) {
	opt := s.opt
	res := &workloadResult{Name: w.Name()}

	// probe scales the clock readings of a measured run: set-ups and
	// throughput blocks. Nil when only the traced pass runs.
	var probe *speedProbe
	var before speedSample
	if opt.measured {
		var err error
		if probe, err = sharedSpeedProbe(); err != nil {
			return nil, fmt.Errorf("speed probe: %w", err)
		}
		before = probe.sample()
	}
	var inst instance
	var setups []float64
	var spent time.Duration
	for i := 0; ; i++ {
		enough := i >= maxSetupRuns || (i >= minSetupRuns && spent >= setupBudget)
		if !opt.measured || opt.tiny {
			enough = i >= 1 // setup_s is an end-to-end metric; a test needs no median
		}
		if enough {
			break
		}
		if inst != nil {
			if err := inst.Close(); err != nil {
				return nil, fmt.Errorf("%s: close: %w", w.Name(), err)
			}
		}
		t0, cpu0 := time.Now(), cpuTime()
		var err error
		if inst, err = w.Setup(opt.seed); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", w.Name(), err)
		}
		secs := (cpuTime() - cpu0).Seconds()
		spent += time.Since(t0)
		if probe != nil {
			after := probe.sample()
			secs /= math.Sqrt(before.slowdown() * after.slowdown())
			before = after
		}
		setups = append(setups, secs)
	}
	defer inst.Close()
	res.InputDigest = inst.InputDigest()

	nominal := w.Episodes()
	var measured *pass
	if opt.measured {
		var err error
		if measured, err = runPass(inst, nominal, opt.seconds, nil, probe); err != nil {
			return nil, fmt.Errorf("%s: measured pass: %w", w.Name(), err)
		}
		res.Violations = append(res.Violations, measured.violations...)
		res.Episodes = len(measured.episodes)
		res.Attempted, _, res.Failed = measured.totals()
		e2e := newMetricSet()
		q1, med, q3 := quartiles(setups)
		e2e.put("setup_s", value{Value: med, N: len(setups), Q1: q1, Q3: q3})
		endToEndMetrics(measured, e2e)
		res.EndToEnd = finalize(e2e, endToEnd, &res.Violations)
	}

	if opt.traced {
		if err := s.tracedPass(w, inst, measured, res); err != nil {
			return nil, err
		}
	}
	res.Correct = len(res.Violations) == 0 && res.Failed == 0
	return res, nil
}

// tracedPass replays the first quarter of the episodes with tracing on
// and gathers the per-layer numbers. ref is the measured pass; when none
// ran, the episodes are first run untraced here, for the output digests
// and the tracing overhead.
func (s *session) tracedPass(w workload, inst instance, ref *pass, res *workloadResult) error {
	opt := s.opt
	n := (w.Episodes() + 3) / 4
	if ref != nil {
		n = (len(ref.episodes) + 3) / 4
	} else {
		var err error
		if ref, err = runPass(inst, n, opt.seconds/4, nil, nil); err != nil {
			return fmt.Errorf("%s: reference pass: %w", w.Name(), err)
		}
		res.Violations = append(res.Violations, ref.violations...)
		n = len(ref.episodes)
		res.Episodes = n
		res.Attempted, _, res.Failed = ref.totals()
	}
	rec := newRecorder()
	traced, err := runPass(inst, n, 0, rec, nil)
	if err != nil {
		return fmt.Errorf("%s: traced pass: %w", w.Name(), err)
	}
	res.Violations = append(res.Violations, traced.violations...)
	for i, e := range traced.episodes {
		if e.digest != ref.episodes[i].digest {
			res.Violations = append(res.Violations,
				fmt.Sprintf("episode %d: output digest differs between the untraced and the traced pass", i))
		}
	}
	lay := newMetricSet()
	if err := inst.Layers(rec, lay); err != nil {
		return fmt.Errorf("%s: layer metrics: %w", w.Name(), err)
	}
	wallPerOp := func(e epOut) float64 { return float64(e.wall) }
	if untraced := median((&pass{episodes: ref.episodes[:n]}).perOp(wallPerOp)); untraced > 0 {
		lay.set("bench.trace_overhead_frac", median(traced.perOp(wallPerOp))/untraced-1, n)
		// What wall_ops_per_s reads on the elapsed clock at the median
		// episode: the gap between the two is the interference the run met.
		lay.set("bench.elapsed_ops_per_s", 1e9/untraced, n)
	}
	ops, refused, failed := traced.totals()
	lay.set("bench.cpu_us_per_op", float64(traced.cpu.Microseconds())/float64(ops), ops)
	lay.set("bench.fail_frac", float64(refused+failed)/float64(ops), ops)

	if s.shared == nil {
		shared, err := sharedLayers(rec, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name(), err)
		}
		s.shared = shared
	}
	lay.fill(s.shared)
	res.PerLayer = finalize(lay, perLayer, &res.Violations)
	if opt.traceDir != "" {
		if err := rec.writeTrace(opt.traceDir, w.Name()); err != nil {
			return fmt.Errorf("%s: write trace: %w", w.Name(), err)
		}
	}
	return nil
}

// sharedLayers measures what does not depend on the workload: the layer
// probes, and one tiny reference episode of each family. A workload's
// per-layer set takes from the references the layers that are not on its
// own path, so that every per-layer number is a live measurement of this
// commit and none is a placeholder.
func sharedLayers(rec *recorder, opt options) (*metricSet, error) {
	shared := newMetricSet()
	for _, rw := range workloads(true) {
		if !referenceWorkloads[rw.Name()] {
			continue
		}
		if err := referenceLayers(rw, opt.seed, rec, shared); err != nil {
			return nil, fmt.Errorf("reference %s: %w", rw.Name(), err)
		}
	}
	size := fullProbes
	if opt.tiny {
		size = tinyProbes
	}
	if err := (&prober{rec: rec, m: shared, size: size}).all(opt.seed); err != nil {
		return nil, err
	}
	return shared, nil
}

// referenceWorkloads are the tiny workloads that stand in for the layers
// a workload does not touch: one per family, the lossy wire for the ARQ
// numbers and the TCP wire for the transport ones.
var referenceWorkloads = map[string]bool{
	"serve-steady": true, "token-query": true, "gquery-lossy": true, "gquery-tcp": true,
}

// referenceLayers runs one traced episode of the tiny workload rw and
// fills in the per-layer numbers lay does not have yet.
func referenceLayers(rw workload, seed int64, rec *recorder, lay *metricSet) error {
	inst, err := rw.Setup(seed)
	if err != nil {
		return err
	}
	defer inst.Close()
	out, err := inst.Episode(&epCtx{rec: rec, heap: true})
	if err != nil {
		return err
	}
	if len(out.violations) > 0 {
		return fmt.Errorf("correctness: %s", strings.Join(out.violations, "; "))
	}
	m := newMetricSet()
	if err := inst.Layers(rec, m); err != nil {
		return err
	}
	lay.fill(m)
	return nil
}

// endToEndMetrics derives the user-visible numbers of a measured pass.
// Allocation numbers are medians over episodes with their quartiles and
// virtual latencies are pooled over every completed op of the pass.
//
// wall_ops_per_s is the median over blocks of ops per CPU-second, each
// scaled by the block's slowdown. On the CPU clock, because every workload
// is one busy thread of work that never waits (CPU time is 99 % of elapsed
// time on an idle machine), and elapsed time on a shared host also counts
// the turns the kernel gave to someone else. Scaled, because what is left
// of a neighbour's interference reaches the program through the core and
// the memory it shares (speed.go). bench.elapsed_ops_per_s of the traced
// pass is the same quantity as the wall clock saw it.
func endToEndMetrics(p *pass, m *metricSet) {
	episodeMedian := func(name string, xs []float64) {
		q1, med, q3 := quartiles(xs)
		m.put(name, value{Value: med, N: len(xs), Q1: q1, Q3: q3})
	}
	rates := make([]float64, len(p.blocks))
	for i, b := range p.blocks {
		rates[i] = float64(b.ops) / b.cpu.Seconds() * b.slowdown
	}
	episodeMedian("wall_ops_per_s", rates)
	episodeMedian("allocs_per_op", p.perOp(func(e epOut) float64 { return float64(e.mallocs) }))
	episodeMedian("alloc_bytes_per_op", p.perOp(func(e epOut) float64 { return float64(e.bytes) }))
	m.set("live_heap_mib", float64(p.episodes[0].liveHeap)/(1<<20), 1)

	sorted := sortedCopy(p.virt)
	m.set("virt_p50_us", float64(percentile(sorted, 50))/1e3, len(sorted))
	m.set("virt_p99_us", float64(percentile(sorted, 99))/1e3, len(sorted))
	m.set("virt_mean_us", mean(sorted)/1e3, len(sorted))
	ops, refused, failed := p.totals()
	m.set("ok_frac", float64(ops-refused-failed)/float64(ops), ops)
}

// finalize checks a metric set against its table — every declared name
// present once, no undeclared name, every value finite — and stamps the
// units.
func finalize(m *metricSet, defs []metricDef, violations *[]string) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok {
			*violations = append(*violations, "metric "+d.Name+" was not measured")
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			*violations = append(*violations, "metric "+d.Name+" is not finite")
			v.Value = 0
		}
		v.Unit = d.Unit
		out[d.Name] = v
	}
	for name := range m.vals {
		if _, ok := out[name]; !ok {
			*violations = append(*violations, "metric "+name+" is not declared")
		}
	}
	for _, name := range m.dup {
		*violations = append(*violations, "metric "+name+" was emitted twice")
	}
	return out
}

// machine identifies where a report was measured.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// report is the document -json writes and -compare reads.
type report struct {
	Machine   machine           `json:"machine"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}
