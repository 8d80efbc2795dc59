package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"slices"
	"sort"
	"time"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/privcrypto"
	"pds/internal/ssi"
	"pds/internal/transport"
)

// The three protocols a gquery workload rotates through, by query index.
const (
	gqSecureAgg = iota
	gqNoise
	gqHistogram
	gqKinds
)

var gqKindMetric = [gqKinds]string{"gquery.secureagg", "gquery.noise", "gquery.histogram"}

// gqueryWorkload is a closed loop of one querier running global queries
// over a participant population; an op is one global query.
type gqueryWorkload struct {
	name, why    string
	participants int
	tuplesEach   int
	episodes     int
	queries      int // per episode
	// faults, when set, is the per-kind fault mix every query's seeded
	// plan carries; the protocol legs then cross the ARQ links.
	faults *netsim.FaultSpec
	// tcp runs the queries over one in-process switch and one dialed
	// connection instead of the simulator.
	tcp bool
}

func (w *gqueryWorkload) Name() string  { return w.name }
func (w *gqueryWorkload) Why() string   { return w.why }
func (w *gqueryWorkload) Episodes() int { return w.episodes }

type gqueryInst struct {
	w       *gqueryWorkload
	seed    int64
	kr      *gquery.Keyring
	buckets []gquery.Bucket
	digest  string

	sw      *transport.Switch
	conn    *transport.TCP
	connReg *obs.Registry

	tr gqueryTrace
}

// gqueryTrace is what the traced episodes accumulate.
type gqueryTrace struct {
	ops       int
	wall      [gqKinds]time.Duration
	n         [gqKinds]int
	phaseNS   map[string]int64
	chunks    int
	workers   int
	fakes     int
	net       netsim.Stats
	retrans   int
	acks      int
	tagFails  int
	backoff   time.Duration
	transfers int64
	// tcpWall and simWall time the same queries on the two substrates.
	tcpWall, simWall time.Duration
	framesBefore     int64
}

func (w *gqueryWorkload) Setup(seed int64) (instance, error) {
	master := sha256.Sum256([]byte(fmt.Sprintf("gquery-master-%d", seed)))
	kr, err := gquery.KeyringFrom(master[:])
	if err != nil {
		return nil, err
	}
	buckets, err := gquery.EquiDepthBuckets(groupDomain, nil, 4)
	if err != nil {
		return nil, err
	}
	g := &gqueryInst{w: w, seed: seed, kr: kr, buckets: buckets}
	g.tr.phaseNS = map[string]int64{}
	d := newDigester()
	for ep := 0; ep < w.episodes; ep++ {
		d.participants(genParticipants(w.participants, w.tuplesEach, episodeSeed(seed, ep)))
	}
	g.digest = d.sum()
	if w.tcp {
		if g.sw, err = transport.NewSwitch(); err != nil {
			return nil, err
		}
		if g.conn, err = transport.Dial(g.sw.Addr(), "querier"); err != nil {
			g.sw.Close()
			return nil, err
		}
		g.connReg = obs.NewRegistry()
		g.conn.SetObserver(g.connReg)
	}
	// Warm up: one query of each protocol, untimed.
	var out epOut
	parts := genParticipants(w.participants, w.tuplesEach, episodeSeed(seed, -1))
	if _, err := g.loop(g.wire(), parts, episodeSeed(seed, -1), gqKinds, &out, nil, nil); err != nil {
		g.Close()
		return nil, err
	}
	return g, nil
}

func (g *gqueryInst) InputDigest() string { return g.digest }

func (g *gqueryInst) Close() error {
	if g.conn == nil {
		return nil
	}
	err := g.conn.Close()
	if cerr := g.sw.Close(); err == nil {
		err = cerr
	}
	g.conn = nil
	return err
}

// wire is the substrate of one episode: the shared connection, or a
// fresh simulator.
func (g *gqueryInst) wire() transport.Transport {
	if g.conn != nil {
		return g.conn
	}
	return netsim.New()
}

// queryCost is the deterministic cost side of one finished query.
type queryCost struct {
	virtNS      int64
	net         netsim.Stats
	retransmits int
}

// bucketize folds a per-group result into the histogram protocol's
// per-bucket answer.
func bucketize(res gquery.Result, buckets []gquery.Bucket) gquery.BucketResult {
	out := gquery.BucketResult{}
	for group, agg := range res {
		if i := gquery.BucketOf(buckets, group); i >= 0 {
			out[i] = out[i].Merge(agg)
		}
	}
	return out
}

func sameAggs[K comparable](got, want map[K]gquery.GroupAgg) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		if got[k] != w {
			return false
		}
	}
	return true
}

// loop runs n queries in the fixed rotation over w and checks every
// completed one against the plain aggregate. It returns each query's
// cost. rec is nil on the measured pass.
func (g *gqueryInst) loop(w transport.Transport, parts []gquery.Participant, epSeed int64, n int,
	out *epOut, virt *[]int64, rec *recorder) ([]queryCost, error) {

	want := gquery.PlainResult(parts)
	wantBuckets := bucketize(want, g.buckets)
	costs := make([]queryCost, 0, n)
	tr := &g.tr
	base := tr.ops
	fold := newDigester()
	for q := 0; q < n; q++ {
		opts := []gquery.Option{gquery.WithWorkers(1)}
		if g.w.faults != nil {
			opts = append(opts, gquery.WithFaults(&netsim.FaultPlan{Seed: epSeed + int64(q), Default: *g.w.faults}))
		}
		// The traced pass reads the run's own counters for what RunStats
		// does not carry; a registry per query, so none grows.
		var reg *obs.Registry
		if rec != nil {
			reg = obs.NewRegistry()
			opts = append(opts, gquery.WithObserver(reg))
		}
		kind := q % gqKinds
		opSpan := rec.begin("op", 0, base+q)
		sp := rec.begin("ssi.new", opSpan, base+q)
		srv := ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
		rec.end(sp)
		sp = rec.begin(gqKindMetric[kind], opSpan, base+q)
		var t0 time.Time
		if rec != nil {
			t0 = time.Now()
		}
		eng := gquery.New(opts...)
		var stats gquery.RunStats
		var err error
		ok := false
		switch kind {
		case gqSecureAgg:
			var res gquery.Result
			res, stats, err = eng.SecureAgg(w, srv, parts, g.kr, 64)
			ok = err == nil && sameAggs(res, want)
		case gqNoise:
			var res gquery.Result
			res, stats, err = eng.Noise(w, srv, parts, g.kr, groupDomain, 1, gquery.ControlledNoise, epSeed+int64(q))
			ok = err == nil && sameAggs(res, want)
		case gqHistogram:
			var res gquery.BucketResult
			res, stats, err = eng.Histogram(w, srv, parts, g.kr, g.buckets)
			ok = err == nil && sameAggs(res, wantBuckets)
		}
		if rec != nil {
			tr.wall[kind] += time.Since(t0)
			tr.n[kind]++
			tr.transfers += reg.CounterValue(netsim.MetricRelTransfers)
		}
		rec.end(sp)
		rec.end(opSpan)
		out.ops++
		switch {
		case errors.Is(err, gquery.ErrDetected) || errors.Is(err, netsim.ErrRetriesExhausted):
			// A typed abort: the protocol refused to answer rather than
			// answer wrongly.
			out.refused++
			fold.str("abort")
			continue
		case err != nil:
			out.failed++
			return costs, fmt.Errorf("query %d (%s): %w", q, gqKindMetric[kind], err)
		case !ok:
			out.failed++
			out.violations = append(out.violations, fmt.Sprintf("query %d (%s): result differs from the plain aggregate", q, gqKindMetric[kind]))
		}
		fold.str(gqKindMetric[kind])
		costs = append(costs, queryCost{virtNS: stats.CriticalPath.TotalNS, net: stats.Net, retransmits: stats.Retransmits})
		if virt != nil {
			*virt = append(*virt, stats.CriticalPath.TotalNS)
		}
		if rec != nil {
			for _, ph := range stats.CriticalPath.Phases {
				tr.phaseNS[ph.Name] += ph.ChainNS
			}
			tr.chunks += stats.Chunks
			tr.workers += stats.WorkerCalls
			tr.fakes += stats.FakeTuples
			tr.net.Messages += stats.Net.Messages
			tr.net.Bytes += stats.Net.Bytes
			tr.retrans += stats.Retransmits
			tr.acks += stats.AckMessages
			tr.tagFails += stats.TagFailures
			tr.backoff += stats.RetryBackoff
		}
	}
	if rec != nil {
		tr.ops += n
	}
	// The plain aggregate pins what every completed query returned.
	groups := make([]string, 0, len(want))
	for grp := range want {
		groups = append(groups, grp)
	}
	sort.Strings(groups)
	for _, grp := range groups {
		a := want[grp]
		fold.str(grp)
		for _, v := range [4]int64{a.Sum, a.Count, a.Min, a.Max} {
			fold.u64(uint64(v))
		}
	}
	out.digest = fold.sum()
	return costs, nil
}

func (g *gqueryInst) Episode(c *epCtx) (epOut, error) {
	epSeed := episodeSeed(g.seed, c.ep)
	parts := genParticipants(g.w.participants, g.w.tuplesEach, epSeed)
	w := g.wire()
	var out epOut
	virt := slices.Grow(c.virt, g.w.queries)
	if c.rec != nil && g.connReg != nil && g.tr.ops == 0 {
		g.tr.framesBefore = g.connReg.CounterValue(transport.MetricFramesReceived)
	}
	m := startMeter()
	costs, err := g.loop(w, parts, epSeed, g.w.queries, &out, &virt, c.rec)
	m.stop(&out)
	out.virt = virt
	if err != nil {
		return out, err
	}
	if c.heap {
		out.liveHeap = liveHeap()
		runtime.KeepAlive(w)
	}
	if g.w.faults != nil {
		retransmits := 0
		for _, c := range costs {
			retransmits += c.retransmits
		}
		if retransmits == 0 {
			out.violations = append(out.violations, "the lossy wire cost no retransmission")
		}
	}
	if g.conn != nil {
		if err := g.conn.Err(); err != nil {
			out.violations = append(out.violations, fmt.Sprintf("tcp wire error: %v", err))
		}
		if c.ep == 0 {
			// Replay on the simulator: the virtual cost and the wire totals
			// must equal the TCP run's exactly.
			var replay epOut
			t0 := time.Now()
			sim, err := g.loop(netsim.New(), parts, epSeed, g.w.queries, &replay, nil, nil)
			simWall := time.Since(t0)
			if err != nil {
				return out, fmt.Errorf("netsim replay: %w", err)
			}
			if !slices.Equal(costs, sim) {
				out.violations = append(out.violations, "virtual cost or wire totals over TCP differ from the netsim replay")
			}
			if c.rec != nil {
				g.tr.tcpWall, g.tr.simWall = out.wall, simWall
			}
		}
	}
	return out, nil
}

func (g *gqueryInst) Layers(rec *recorder, m *metricSet) error {
	tr := &g.tr
	if tr.ops == 0 {
		return errors.New("no traced episode ran")
	}
	ops := float64(tr.ops)
	for kind, name := range gqKindMetric {
		if tr.n[kind] > 0 {
			m.set(name+"_ms", float64(tr.wall[kind])/float64(tr.n[kind])/1e6, tr.n[kind])
		}
	}
	for _, ph := range []string{gquery.PhaseCollect, gquery.PhasePartition, gquery.PhaseTokenFold, gquery.PhaseMerge} {
		m.set("gquery.phase."+ph+".virt_ms", float64(tr.phaseNS[ph])/ops/1e6, tr.ops)
	}
	m.set("gquery.chunks_per_op", float64(tr.chunks)/ops, tr.ops)
	m.set("gquery.worker_calls_per_op", float64(tr.workers)/ops, tr.ops)
	m.set("gquery.fake_tuples_per_op", float64(tr.fakes)/ops, tr.ops)
	m.set("netsim.messages_per_op", float64(tr.net.Messages)/ops, tr.ops)
	m.set("netsim.bytes_per_op", float64(tr.net.Bytes)/ops, tr.ops)
	m.set("netsim.retransmits_per_op", float64(tr.retrans)/ops, tr.ops)
	m.set("netsim.acks_per_op", float64(tr.acks)/ops, tr.ops)
	m.set("netsim.tag_failures_per_op", float64(tr.tagFails)/ops, tr.ops)
	m.set("netsim.backoff_virt_ms_per_op", float64(tr.backoff)/ops/1e6, tr.ops)
	// Useful sends over attempts: every transfer that needed no
	// retransmission, over all data attempts. A direct wire wastes none.
	firstAttempt, sends := 1.0, tr.net.Messages
	if tr.transfers > 0 {
		sends = tr.transfers + int64(tr.retrans)
		firstAttempt = float64(tr.transfers) / float64(sends)
	}
	m.set("netsim.first_attempt_frac", firstAttempt, int(sends))

	if g.conn != nil {
		frames := g.connReg.CounterValue(transport.MetricFramesReceived) - tr.framesBefore
		m.set("transport.frames_received_per_op", float64(frames)/ops, tr.ops)
		if tr.simWall > 0 {
			m.set("transport.tcp_vs_netsim_wall_ratio", float64(tr.tcpWall)/float64(tr.simWall), g.w.queries)
		}
		env := netsim.Envelope{From: "querier", To: "ssi", Kind: "probe", Payload: make([]byte, 96)}
		p := &prober{rec: rec, m: m, size: probeSize{rounds: 5}}
		if err := p.probe("transport.tcp_send_us", func() (time.Duration, int, error) {
			return timed(400, func(int) error { g.conn.Send(env); return g.conn.Err() })
		}); err != nil {
			return err
		}
		m.scale("transport.tcp_send_us", 1e-3)
		if send := m.vals["transport.tcp_send_us"]; send.Value > 0 {
			m.set("transport.tcp_msgs_per_s", 1e6/send.Value, send.N)
		}
	}
	return nil
}

// Fixed 512-bit primes of the probes' 1024-bit Paillier key: key
// generation time is a lottery, and the probes time the operations.
const (
	paillierP = "cd9e45dbf651ea52b233247be8ba4be91778b839c7a5d7a1a8e96da63a10254110797a29fe7c925f990ec4063c2ddf5fefaa1d818278a8ed6020ddc792e1baaf"
	paillierQ = "ca35205bd4d6cc08a8e3c573d97a3a0ec840d340922119ca3b9201de14bfc8e7a2ed78faf910b2d7b8b646dd2830577ccbe8501eb6f2cbd06c58a9630390e449"
)

func probeKey() (*privcrypto.PaillierPrivateKey, error) {
	p, _ := new(big.Int).SetString(paillierP, 16)
	q, _ := new(big.Int).SetString(paillierQ, 16)
	return privcrypto.PaillierFromPrimes(p, q)
}

// streamSource yields a bench-owned population one participant at a
// time, so the streaming probe never materializes it.
type streamSource struct {
	n, next int
	one     []gquery.Participant
}

func (s *streamSource) Next() (gquery.Participant, bool) {
	if s.next >= s.n {
		return gquery.Participant{}, false
	}
	p := s.one[s.next%len(s.one)]
	p.ID = fmt.Sprintf("pds-%06d", s.next)
	s.next++
	return p, true
}

// network covers the layers under a global query: privcrypto, the
// protocol variants no workload runs, netsim and ssi.
func (p *prober) network(seed int64) error {
	rec, m := p.rec, p.m
	const participants, tuplesEach = 200, 3
	master := sha256.Sum256([]byte(fmt.Sprintf("probe-master-%d", seed)))
	kr, err := gquery.KeyringFrom(master[:])
	if err != nil {
		return err
	}
	// A tuple plaintext is id(8) + len(2) + group + value(8) + flag(1).
	pt := make([]byte, 8+2+len("hypertension")+8+1)
	var ct []byte
	if err := p.probe("privcrypto.nondet_encrypt_ns", func() (time.Duration, int, error) {
		return timed(2000, func(int) (err error) { ct, err = kr.NonDet.Encrypt(pt); return })
	}); err != nil {
		return err
	}
	if err := p.probe("privcrypto.nondet_decrypt_ns", func() (time.Duration, int, error) {
		return timed(2000, func(int) error { _, err := kr.NonDet.Decrypt(ct); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("privcrypto.det_encrypt_ns", func() (time.Duration, int, error) {
		return timed(2000, func(int) error { _, err := kr.Det.Encrypt([]byte("hypertension")); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("privcrypto.mac_ns", func() (time.Duration, int, error) {
		return timed(2000, func(int) error { privcrypto.MAC(kr.MACKey, ct); return nil })
	}); err != nil {
		return err
	}
	const macCalls = 1000
	allocs := mallocsDuring(func() {
		for i := 0; i < macCalls; i++ {
			privcrypto.MAC(kr.MACKey, ct)
		}
	})
	m.set("privcrypto.mac_allocs", float64(allocs)/macCalls, macCalls)

	sk, err := probeKey()
	if err != nil {
		return err
	}
	pk := sk.Public()
	var c1 *big.Int
	if err := p.probe("privcrypto.paillier_encrypt_us", func() (time.Duration, int, error) {
		return timed(4, func(i int) (err error) { c1, err = pk.EncryptInt64(int64(100+i), nil); return })
	}); err != nil {
		return err
	}
	if err := p.probe("privcrypto.paillier_decrypt_us", func() (time.Duration, int, error) {
		return timed(4, func(int) error { _, err := sk.Decrypt(c1); return err })
	}); err != nil {
		return err
	}
	if err := p.probe("privcrypto.paillier_add_us", func() (time.Duration, int, error) {
		return timed(200, func(int) error { pk.AddCipher(c1, c1); return nil })
	}); err != nil {
		return err
	}
	for _, name := range []string{"privcrypto.paillier_encrypt_us", "privcrypto.paillier_decrypt_us", "privcrypto.paillier_add_us"} {
		m.scale(name, 1e-3)
	}

	// The homomorphic protocol on a small population: no workload runs it
	// end to end, so this row is what says whether Paillier dominates.
	small := genParticipants(12, tuplesEach, episodeSeed(seed, -3))
	sp := rec.begin("gquery.paillier_agg", 0, 0)
	t0 := time.Now()
	net := netsim.New()
	res, _, err := gquery.New(gquery.WithWorkers(1)).PaillierAgg(net, ssi.New(net, ssi.HonestButCurious, ssi.Behavior{}), small, kr, pk, sk)
	d := time.Since(t0)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("paillier aggregate: %w", err)
	}
	for grp, want := range gquery.PlainResult(small) {
		if got := res[grp]; got.Sum != want.Sum || got.Count != want.Count {
			return fmt.Errorf("paillier aggregate: group %s = %+v, want %+v", grp, got, want)
		}
	}
	m.set("gquery.paillier_agg_ms", float64(d)/1e6, 1)

	// One streaming fold over a population too large to hold.
	streamed := p.size.streamed
	src := &streamSource{n: streamed, one: genParticipants(64, tuplesEach, episodeSeed(seed, -4))}
	sp = rec.begin("gquery.stream", 0, 0)
	t0 = time.Now()
	net = netsim.New()
	sres, _, err := gquery.New(gquery.WithWorkers(1), gquery.WithTopology(gquery.Tree(16))).
		SecureAggStream(net, ssi.New(net, ssi.HonestButCurious, ssi.Behavior{}), src, kr, 64)
	d = time.Since(t0)
	rec.end(sp)
	if err != nil {
		return fmt.Errorf("streaming aggregate: %w", err)
	}
	if got, want := sres.TotalCount(), int64(streamed*tuplesEach); got != want {
		return fmt.Errorf("streaming aggregate counted %d tuples, want %d", got, want)
	}
	m.set("gquery.stream_tuples_per_s", float64(streamed*tuplesEach)/d.Seconds(), streamed)

	// Token fleet: every core against one, on a population large enough
	// to have chunks to spread.
	fleet := genParticipants(p.size.fleet, tuplesEach, episodeSeed(seed, -5))
	run := func(workers int) (time.Duration, error) {
		net := netsim.New()
		t0 := time.Now()
		_, _, err := gquery.New(gquery.WithWorkers(workers)).SecureAgg(net, ssi.New(net, ssi.HonestButCurious, ssi.Behavior{}), fleet, kr, 64)
		return time.Since(t0), err
	}
	var speedups []float64
	for i := 0; i < p.size.fleetRounds; i++ {
		sp = rec.begin("gquery.fleet", 0, i)
		serial, err := run(1)
		if err != nil {
			return err
		}
		prev := runtime.GOMAXPROCS(runtime.NumCPU())
		parallel, err := run(0)
		runtime.GOMAXPROCS(prev)
		rec.end(sp)
		if err != nil {
			return err
		}
		speedups = append(speedups, float64(serial)/float64(parallel))
	}
	m.set("gquery.fleet_speedup", median(speedups), len(speedups))

	// netsim: the direct wire and one clean ARQ transfer.
	env := netsim.Envelope{From: "pds-00001", To: "ssi", Kind: "tuple", Payload: make([]byte, 96)}
	net = netsim.New()
	if err := p.probe("netsim.send_ns", func() (time.Duration, int, error) {
		return timed(10000, func(int) error { net.Send(env); return nil })
	}); err != nil {
		return err
	}
	if err := p.probe("netsim.link_transfer_ns", func() (time.Duration, int, error) {
		link := netsim.NewLink(netsim.New(), netsim.Reliability{})
		return timed(2000, func(int) error { return link.Transfer(env, func(netsim.Envelope) {}) })
	}); err != nil {
		return err
	}

	// ssi: ingest and blind partition of one query's uploads.
	uploads := participants * tuplesEach
	var srv *ssi.Server
	if err := p.probe("ssi.receive_ns", func() (time.Duration, int, error) {
		srv = ssi.New(netsim.New(), ssi.HonestButCurious, ssi.Behavior{})
		return timed(uploads, func(int) error { srv.Receive(env); return nil })
	}); err != nil {
		return err
	}
	if err := p.probe("ssi.partition_ns", func() (time.Duration, int, error) {
		srv = ssi.New(netsim.New(), ssi.HonestButCurious, ssi.Behavior{})
		for i := 0; i < uploads; i++ {
			srv.Receive(env)
		}
		t0 := time.Now()
		_, err := srv.Partition(64)
		return time.Since(t0), 1, err
	}); err != nil {
		return err
	}
	return p.probe("ssi.hash_id_ns", func() (time.Duration, int, error) {
		return timed(10000, func(i int) error { ssi.HashID("pds-00042", i); return nil })
	})
}
