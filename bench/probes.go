package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"pds/internal/acl"
	"pds/internal/durable"
	"pds/internal/embdb"
	"pds/internal/flash"
	"pds/internal/kv"
	"pds/internal/logstore"
	"pds/internal/mcu"
	"pds/internal/obs"
	"pds/internal/search"
)

// Layer probes time calls into one layer's public functions on inputs of
// the workloads' shape. Each is a millisecond or so of work repeated for
// a number of rounds; the reported number is the median round, and every
// round is one span named after the metric.
type prober struct {
	rec  *recorder
	m    *metricSet
	size probeSize
}

// probeSize scales the probes: full for a benchmark run, tiny for the
// smoke test, which only checks that every number is produced.
type probeSize struct {
	rounds      int
	streamed    int // participants of the streaming fold
	fleet       int // participants of the token-fleet comparison
	fleetRounds int
}

var (
	fullProbes = probeSize{rounds: 9, streamed: 100_000, fleet: 2000, fleetRounds: 3}
	tinyProbes = probeSize{rounds: 1, streamed: 500, fleet: 100, fleetRounds: 1}
)

// probeGeometry is the private chip of a hosted tenant.
func probeGeometry() flash.Geometry {
	return flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 128}
}

// probe runs round the configured number of times. A round returns the
// time it measured and how many calls that covers; the result is the
// median nanoseconds per call.
func (p *prober) probe(name string, round func() (time.Duration, int, error)) error {
	rec, m := p.rec, p.m
	var perCall []float64
	calls := 0
	runtime.GC() // start every probe from the same collector state
	for i := 0; i < p.size.rounds; i++ {
		sp := rec.begin(name, 0, i)
		d, n, err := round()
		rec.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		if n > 0 {
			perCall = append(perCall, float64(d)/float64(n))
			calls += n
		}
	}
	m.set(name, median(perCall), calls)
	return nil
}

// timed measures n calls of fn.
func timed(n int, fn func(i int) error) (time.Duration, int, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, 0, err
		}
	}
	return time.Since(t0), n, nil
}

// all runs every probe: the layers under a hosted request or a
// token query (flash, logstore, the three engines' write paths, durable,
// acl, obs), then the layers under a global query.
func (p *prober) all(seed int64) error {
	for _, probes := range []func() error{
		p.flash, p.logstore, p.engineWrites, p.durable, p.acl, p.obs,
	} {
		if err := probes(); err != nil {
			return err
		}
	}
	return p.network(seed)
}

func (p *prober) flash() error {
	rec, m := p.rec, p.m
	geo := probeGeometry()
	chip := flash.NewChip(geo)
	page := bytes.Repeat([]byte{0xa5}, geo.PageSize)
	dst := make([]byte, geo.PageSize)
	// One round programs, reads and erases the whole chip; the three
	// probes share the rounds, so each reads its own slice of the clock.
	var write, read, erase []float64
	for i := 0; i < p.size.rounds; i++ {
		sp := rec.begin("flash.write_page_ns", 0, i)
		d, n, err := timed(geo.TotalPages(), func(p int) error { return chip.WritePage(p, page) })
		rec.end(sp)
		if err != nil {
			return err
		}
		write = append(write, float64(d)/float64(n))
		sp = rec.begin("flash.read_page_ns", 0, i)
		d, n, err = timed(geo.TotalPages(), func(p int) error { _, err := chip.ReadPage(p, dst); return err })
		rec.end(sp)
		if err != nil {
			return err
		}
		read = append(read, float64(d)/float64(n))
		sp = rec.begin("flash.erase_block_ns", 0, i)
		d, n, err = timed(geo.Blocks, chip.EraseBlock)
		rec.end(sp)
		if err != nil {
			return err
		}
		erase = append(erase, float64(d)/float64(n))
	}
	m.set("flash.write_page_ns", median(write), p.size.rounds*geo.TotalPages())
	m.set("flash.read_page_ns", median(read), p.size.rounds*geo.TotalPages())
	m.set("flash.erase_block_ns", median(erase), p.size.rounds*geo.Blocks)
	return nil
}

func (p *prober) logstore() error {
	m := p.m
	const records = 1000
	record := func(i int) []byte { return []byte(fmt.Sprintf("rec-%06d-%024d", (i*7919)%records, i)) }
	filled := func() (*logstore.Log, error) {
		l := logstore.NewLog(flash.NewAllocator(flash.NewChip(probeGeometry())))
		for i := 0; i < records; i++ {
			if _, err := l.Append(record(i)); err != nil {
				return nil, err
			}
		}
		return l, l.Flush()
	}
	if err := p.probe("logstore.append_ns", func() (time.Duration, int, error) {
		l := logstore.NewLog(flash.NewAllocator(flash.NewChip(probeGeometry())))
		return timed(records, func(i int) error { _, err := l.Append(record(i)); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("logstore.journal_commit_ns", func() (time.Duration, int, error) {
		alloc := flash.NewAllocator(flash.NewChip(probeGeometry()))
		j, err := logstore.NewJournal(alloc)
		if err != nil {
			return 0, 0, err
		}
		l := logstore.NewLog(alloc)
		if _, err := l.Append(record(0)); err != nil {
			return 0, 0, err
		}
		if err := l.Flush(); err != nil {
			return 0, 0, err
		}
		return timed(64, func(int) error {
			return j.Commit(&logstore.Manifest{Streams: []logstore.Stream{logstore.StreamOf("probe", l)}})
		})
	}); err != nil {
		return err
	}
	if err := p.probe("logstore.sort_ns_per_record", func() (time.Duration, int, error) {
		l, err := filled()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		_, err = logstore.Sort(l, func(a, b []byte) bool { return bytes.Compare(a, b) < 0 }, 2, 4)
		return time.Since(t0), records, err
	}); err != nil {
		return err
	}
	// Recovery of a synced, closed kv store on its live chip: what a
	// tenant reopen pays before the engine rebuilds.
	var reads int64
	if err := p.probe("logstore.recover_ns", func() (time.Duration, int, error) {
		chip, _, err := closedStore(durable.Kinds()[0], 24)
		if err != nil {
			return 0, 0, err
		}
		before := chip.Stats()
		t0 := time.Now()
		_, err = logstore.Recover(chip, nil)
		d := time.Since(t0)
		reads = chip.Stats().Sub(before).PageReads
		return d, 1, err
	}); err != nil {
		return err
	}
	m.set("logstore.recover_page_reads", float64(reads), p.size.rounds)
	return nil
}

// closedStore runs the first ops operations of k's canonical script on a
// fresh tenant chip, syncing as the host does, then syncs and closes the
// store: the evicted-to-flash state.
func closedStore(k durable.Kind, ops int) (*flash.Chip, durable.Store, error) {
	chip := flash.NewChip(probeGeometry())
	st, err := k.Open(flash.NewAllocator(chip))
	if err != nil {
		return nil, nil, err
	}
	for op := 0; op < ops; op++ {
		if err := st.Apply(op); err != nil {
			return nil, nil, err
		}
		if (op+1)%k.SyncEvery == 0 {
			if err := st.Sync(); err != nil {
				return nil, nil, err
			}
		}
	}
	if err := st.Sync(); err != nil {
		return nil, nil, err
	}
	return chip, st, st.Close()
}

func (p *prober) engineWrites() error {
	m := p.m
	const puts, keys = 400, 100
	loaded := func() (*kv.Store, error) {
		s := kv.Open(flash.NewAllocator(flash.NewChip(probeGeometry())))
		for i := 0; i < puts; i++ {
			if err := s.Put(kvKey(i%keys), kvValue(1, i)); err != nil {
				return nil, err
			}
		}
		return s, nil
	}
	if err := p.probe("kv.put_ns", func() (time.Duration, int, error) {
		s := kv.Open(flash.NewAllocator(flash.NewChip(probeGeometry())))
		return timed(puts, func(i int) error { return s.Put(kvKey(i%keys), kvValue(1, i)) })
	}); err != nil {
		return err
	}
	if err := p.probe("kv.compact_ns", func() (time.Duration, int, error) {
		s, err := loaded()
		if err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		err = s.Compact(2, 4)
		return time.Since(t0), 1, err
	}); err != nil {
		return err
	}

	const docs = 120
	doc := func(i int) map[string]int {
		return map[string]int{
			fmt.Sprintf("term-%02d", i%10):       i%4 + 1,
			fmt.Sprintf("term-%02d", (i*5+1)%10): i%3 + 1,
			fmt.Sprintf("term-%02d", (i*7+3)%10): 1,
		}
	}
	engine := func() (*search.Engine, *flash.Chip, error) {
		chip := flash.NewChip(probeGeometry())
		e, err := search.NewEngine(flash.NewAllocator(chip), mcu.NewArena(8192), 4)
		return e, chip, err
	}
	if err := p.probe("search.add_ns", func() (time.Duration, int, error) {
		e, _, err := engine()
		if err != nil {
			return 0, 0, err
		}
		return timed(docs, func(i int) error { _, err := e.AddDocument(doc(i)); return err })
	}); err != nil {
		return err
	}
	var reorgIO int64
	if err := p.probe("search.reorganize_ns", func() (time.Duration, int, error) {
		e, chip, err := engine()
		if err != nil {
			return 0, 0, err
		}
		for i := 0; i < docs; i++ {
			if _, err := e.AddDocument(doc(i)); err != nil {
				return 0, 0, err
			}
		}
		before := chip.Stats()
		t0 := time.Now()
		err = e.Reorganize(2, 4)
		d := time.Since(t0)
		io := chip.Stats().Sub(before)
		reorgIO = io.PageReads + io.PageWrites
		return d, 1, err
	}); err != nil {
		return err
	}
	m.set("search.reorganize_page_io", float64(reorgIO), p.size.rounds)

	schema := embdb.NewSchema(embdb.Column{Name: "id", Type: embdb.Int}, embdb.Column{Name: "name", Type: embdb.Str})
	return p.probe("embdb.insert_ns", func() (time.Duration, int, error) {
		t := embdb.NewTable(flash.NewAllocator(flash.NewChip(probeGeometry())), "customer", schema)
		return timed(400, func(i int) error {
			_, err := t.Insert(embdb.Row{embdb.IntVal(int64(i)), embdb.StrVal(fmt.Sprintf("customer-%04d-padding", i))})
			return err
		})
	})
}

// durable drives each engine's canonical op script the way the
// host does — Apply, Sync every SyncEvery ops — then closes the store and
// reopens it through recovery.
func (p *prober) durable() error {
	rec, m := p.rec, p.m
	for _, k := range durable.Kinds() {
		ops := 2 * k.Ops
		var apply, sync, reopen, syncIO []float64
		for round := 0; round < p.size.rounds; round++ {
			chip := flash.NewChip(probeGeometry())
			st, err := k.Open(flash.NewAllocator(chip))
			if err != nil {
				return err
			}
			var applyNS, syncNS time.Duration
			var io flash.Stats
			syncs := 0
			sp := rec.begin("durable."+k.Name+".apply_ns", 0, round)
			for op := 0; op < ops; op++ {
				t0 := time.Now()
				if err := st.Apply(op); err != nil {
					return fmt.Errorf("durable %s: apply %d: %w", k.Name, op, err)
				}
				applyNS += time.Since(t0)
				if (op+1)%k.SyncEvery == 0 {
					before := chip.Stats()
					ssp := rec.begin("durable."+k.Name+".sync_ns", sp, round)
					t0 = time.Now()
					if err := st.Sync(); err != nil {
						return fmt.Errorf("durable %s: sync: %w", k.Name, err)
					}
					syncNS += time.Since(t0)
					rec.end(ssp)
					io = io.Add(chip.Stats().Sub(before))
					syncs++
				}
			}
			rec.end(sp)
			if err := st.Close(); err != nil {
				return err
			}
			sp = rec.begin("durable."+k.Name+".reopen_ns", 0, round)
			t0 := time.Now()
			recd, err := logstore.Recover(chip, nil)
			if err != nil {
				return fmt.Errorf("durable %s: recover: %w", k.Name, err)
			}
			if _, err := k.Reopen(recd); err != nil {
				return fmt.Errorf("durable %s: reopen: %w", k.Name, err)
			}
			reopen = append(reopen, float64(time.Since(t0)))
			rec.end(sp)
			apply = append(apply, float64(applyNS)/float64(ops))
			sync = append(sync, float64(syncNS)/float64(syncs))
			syncIO = append(syncIO, float64(io.PageReads+io.PageWrites)/float64(syncs))
		}
		m.set("durable."+k.Name+".apply_ns", median(apply), p.size.rounds*ops)
		m.set("durable."+k.Name+".sync_ns", median(sync), p.size.rounds*ops/k.SyncEvery)
		m.set("durable."+k.Name+".sync_page_io", median(syncIO), p.size.rounds*ops/k.SyncEvery)
		m.set("durable."+k.Name+".reopen_ns", median(reopen), p.size.rounds)
	}
	return nil
}

// acl times the guard exactly as a tenant envelope wires it: two
// rules, decisions mirrored into a registry, audit on the simulated
// clock.
func (p *prober) acl() error {
	const checks = 2000
	guard := func() *acl.Guard {
		g := acl.NewGuard()
		g.Policy.Add(acl.Rule{Subject: "tenant-0000", Collection: "store/*", Purpose: purposeServe, Allow: true})
		g.Policy.Add(acl.Rule{Purpose: purposeForbidden, Allow: false})
		g.Observe(obs.NewRegistry())
		return g
	}
	req := acl.Request{Subject: "tenant-0000", Role: "owner", Collection: "store/kv", Action: acl.Write, Purpose: purposeServe}
	var g *acl.Guard
	if err := p.probe("acl.check_ns", func() (time.Duration, int, error) {
		g = guard()
		return timed(checks, func(int) error {
			if !g.Check(req) {
				return fmt.Errorf("owner request denied")
			}
			return nil
		})
	}); err != nil {
		return err
	}
	return p.probe("acl.verify_ns_per_entry", func() (time.Duration, int, error) {
		t0 := time.Now()
		if bad := g.VerifyChain(); bad >= 0 {
			return 0, 0, fmt.Errorf("audit chain broken at %d", bad)
		}
		return time.Since(t0), checks, nil
	})
}

// obs times the registry and the telemetry window on a registry
// shaped like a host's: a few dozen series.
func (p *prober) obs() error {
	reg := obs.NewRegistry()
	for i := 0; i < 24; i++ {
		reg.Counter("probe_requests_total", "class", fmt.Sprint(i%3), "decision", fmt.Sprint(i/3)).Inc()
	}
	for i := 0; i < 3; i++ {
		reg.Histogram("probe_latency_ns", []int64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8}, "class", fmt.Sprint(i)).Observe(int64(i) * 1e4)
		reg.Gauge("probe_queue_depth", "class", fmt.Sprint(i)).Set(int64(i))
	}
	if err := p.probe("obs.counter_inc_ns", func() (time.Duration, int, error) {
		return timed(10000, func(int) error {
			reg.Counter("probe_requests_total", "class", "1", "decision", "2").Inc()
			return nil
		})
	}); err != nil {
		return err
	}
	// Advance at the steady workload's pace: an arrival every 500 µs of
	// virtual time, a sample every 250 ms.
	w := obs.NewWindow(reg, 0, 0)
	now := int64(0)
	if err := p.probe("obs.window_advance_ns", func() (time.Duration, int, error) {
		return timed(5000, func(int) error {
			now += 500_000
			w.Advance(now)
			return nil
		})
	}); err != nil {
		return err
	}
	return p.probe("obs.window_sample_ns", func() (time.Duration, int, error) {
		return timed(50, func(int) error {
			now += w.EveryNS()
			w.SampleNow(now)
			return nil
		})
	})
}

// mallocsDuring counts heap allocations of fn.
func mallocsDuring(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}
