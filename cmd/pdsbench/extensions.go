package main

import (
	"errors"
	"fmt"
	"math/rand"

	"pds/internal/embdb"
	"pds/internal/flash"
	"pds/internal/folkis"
	"pds/internal/kv"
	"pds/internal/mcu"
	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/search"
	"pds/internal/smc"
	"pds/internal/sptemp"
	"pds/internal/tseries"
	"pds/internal/workload"
)

// runE11 addresses the tutorial's co-design challenge ("How to calibrate
// the HW (RAM) to data oriented treatments?"): sweep the RAM budget and
// report which operations of a fixed personal workload remain feasible.
func runE11(cfg config) error {
	budgets := []int{4 << 10, 8 << 10, 16 << 10, 24 << 10, 48 << 10, 96 << 10, 192 << 10}
	if cfg.quick {
		budgets = []int{8 << 10, 24 << 10, 96 << 10}
	}
	docCount := 5000
	docs := workload.Documents(docCount, 500, 6, 8)

	w := newTab()
	fmt.Fprintln(w, "RAM(KiB)\tengine(8 buckets)\tsearch 1kw\tsearch 4kw\tnaive search\tstar-query")
	for _, budget := range budgets {
		status := func(err error) string {
			switch {
			case err == nil:
				return "ok"
			case errors.Is(err, mcu.ErrOutOfRAM):
				return "OOM"
			default:
				return "err"
			}
		}
		chip := newChip(cfg)
		arena := mcu.NewArena(budget)
		engineRes, s1, s4, naive := "-", "-", "-", "-"
		eng, err := search.NewEngine(flash.NewAllocator(chip), arena, 8)
		engineRes = status(err)
		if err == nil {
			for _, d := range docs {
				if _, err := eng.AddDocument(d); err != nil {
					return err
				}
			}
			eng.Flush()
			_, err = eng.Search([]string{"term00000"}, 10)
			s1 = status(err)
			_, err = eng.Search([]string{"term00000", "term00001", "term00002", "term00003"}, 10)
			s4 = status(err)
			_, err = eng.NaiveSearch([]string{"term00000"}, 10)
			naive = status(err)
			eng.Close()
		}

		// Star query under the same budget (fresh device).
		chip2 := newChip(cfg)
		arena2 := mcu.NewArena(budget)
		db := embdb.NewDB(flash.NewAllocator(chip2), arena2)
		if err := workload.BuildStar(db, workload.StarScaleFactor(0.0005), 12); err != nil {
			return err
		}
		rows, err := db.ExecuteStar(embdb.StarQuery{
			Root: "LINEITEM",
			Conds: []embdb.Cond{
				{Table: "CUSTOMER", Col: "mktsegment", Val: embdb.StrVal("HOUSEHOLD")},
			},
			Project: []embdb.ColRef{{Table: "LINEITEM", Col: "qty"}},
		})
		star := status(err)
		if err == nil {
			if _, err := rows.All(); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\n", budget>>10, engineRes, s1, s4, naive, star)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("reading: the pipelined operations' feasibility knee sits at the insertion-buffer")
	fmt.Println("footprint (buckets × page), while naive evaluation needs RAM linear in the data.")
	return nil
}

// runE12 measures the log-only key-value store: get cost vs store size
// against the full-scan baseline, and the effect of compaction.
func runE12(cfg config) error {
	sizes := []int{1000, 5000, 20000}
	if cfg.quick {
		sizes = []int{1000, 5000}
	}
	w := newTab()
	fmt.Fprintln(w, "puts\tlive-keys\tpages\tget(IO)\tscan-get(IO)\tpost-compact-pages\tpost-compact-get(IO)")
	for _, n := range sizes {
		alloc := flash.NewAllocator(newChip(cfg))
		s := kv.Open(alloc)
		live := n / 4 // 4 versions per key on average
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("user/%05d", i%live)), []byte(fmt.Sprintf("profile-%d", i))); err != nil {
				return err
			}
		}
		if err := s.Flush(); err != nil {
			return err
		}
		chip := alloc.Chip()
		probe := []byte(fmt.Sprintf("user/%05d", live/2))

		chip.ResetStats()
		if _, _, err := s.Get(probe); err != nil {
			return err
		}
		getIO := chip.Stats().PageReads

		chip.ResetStats()
		if _, err := s.ScanGet(probe); err != nil {
			return err
		}
		scanIO := chip.Stats().PageReads

		pagesBefore := s.Pages()
		if err := s.Compact(16, 8); err != nil {
			return err
		}
		chip.ResetStats()
		if _, _, err := s.Get(probe); err != nil {
			return err
		}
		compactGetIO := chip.Stats().PageReads
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			n, live, pagesBefore, getIO, scanIO, s.Pages(), compactGetIO)
		s.Close()
	}
	return w.Flush()
}

// runE13 measures the time-series store: window-aggregate cost vs series
// length against the full scan, plus a downsampling pass.
func runE13(cfg config) error {
	sizes := []int{10000, 50000, 200000}
	if cfg.quick {
		sizes = []int{10000, 50000}
	}
	w := newTab()
	fmt.Fprintln(w, "points\tpages\twindow(IO)\tscan(IO)\tsegments-from-summary\tboundary-reads")
	for _, n := range sizes {
		alloc := flash.NewAllocator(newChip(cfg))
		s := tseries.New(alloc)
		for i := 0; i < n; i++ {
			if err := s.Append(tseries.Point{T: int64(i), V: int64(i % 977)}); err != nil {
				return err
			}
		}
		if err := s.Flush(); err != nil {
			return err
		}
		chip := alloc.Chip()
		lo, hi := int64(n/4), int64(3*n/4)

		chip.ResetStats()
		fast, st, err := s.Window(lo, hi)
		if err != nil {
			return err
		}
		fastIO := chip.Stats().PageReads

		chip.ResetStats()
		slow, err := s.ScanWindow(lo, hi)
		if err != nil {
			return err
		}
		scanIO := chip.Stats().PageReads
		if fast != slow {
			return fmt.Errorf("E13: window mismatch %+v vs %+v", fast, slow)
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
			n, s.Pages(), fastIO, scanIO, st.SegmentsInside, st.SegmentsRead)
		s.Drop()
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// A day of meter data downsampled to hourly buckets.
	alloc := flash.NewAllocator(newChip(cfg))
	s := tseries.New(alloc)
	day := workload.MeterReadings(1, 3)[0]
	for q, v := range day {
		if err := s.Append(tseries.Point{T: int64(q) * 15, V: v}); err != nil {
			return err
		}
	}
	buckets, err := s.Downsample(0, 24*60, 60)
	if err != nil {
		return err
	}
	peakHour, peak := 0, int64(0)
	for h, b := range buckets {
		if b.Sum > peak {
			peak, peakHour = b.Sum, h
		}
	}
	fmt.Printf("meter day downsampled to %d hourly buckets; peak hour %d (%d Wh)\n",
		len(buckets), peakHour, peak)
	return s.Drop()
}

// runE14 exercises the [CKV+02] toolkit applications the tutorial lists
// ("Can compute: Association Rules, Clusters"): privacy-preserving
// distributed Apriori and k-means built on the secure-sum ring.
func runE14(cfg config) error {
	fmt.Println("-- association rules (distributed Apriori over secure sums) --")
	w := newTab()
	fmt.Fprintln(w, "parties\ttransactions\tminsup\trules\tsecure-sum-msgs")
	sizes := []struct{ parties, txs int }{{4, 200}, {8, 400}, {16, 800}}
	if cfg.quick {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		rng := rand.New(rand.NewSource(7))
		var txs []smc.Transaction
		for i := 0; i < sz.txs; i++ {
			var tx smc.Transaction
			for item := int64(0); item < 10; item++ {
				if rng.Float64() < 0.3 {
					tx = append(tx, item)
				}
			}
			if len(tx) == 0 {
				tx = smc.Transaction{0}
			}
			// Correlated pair to guarantee interesting rules.
			if rng.Float64() < 0.5 {
				tx = append(smc.Transaction{20, 21}, tx...)
			}
			txs = append(txs, tx)
		}
		parties := make([][]smc.Transaction, sz.parties)
		for i, t := range txs {
			parties[i%sz.parties] = append(parties[i%sz.parties], t)
		}
		rules, tr, err := smc.MineAssociationRules(netsim.New(), parties, 0.2, 0.7, rand.New(rand.NewSource(8)))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t0.20\t%d\t%d\n",
			sz.parties, sz.txs, len(rules), tr.Messages)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- k-means clustering (per-cluster secure sums) --")
	w = newTab()
	fmt.Fprintln(w, "parties\tpoints\tk\titers\tsecure-sum-msgs\tcluster-sizes")
	rng := rand.New(rand.NewSource(9))
	blob := func(cx, cy int64, n int) [][]int64 {
		out := make([][]int64, n)
		for i := range out {
			out[i] = []int64{cx + rng.Int63n(21) - 10, cy + rng.Int63n(21) - 10}
		}
		return out
	}
	pts := append(blob(0, 0, 100), blob(500, 500, 100)...)
	pts = append(pts, blob(0, 500, 100)...)
	for _, parties := range []int{4, 10} {
		split := make([][][]int64, parties)
		for i, p := range pts {
			split[i%parties] = append(split[i%parties], p)
		}
		_, counts, tr, err := smc.KMeans(netsim.New(), split, 3, 6, rand.New(rand.NewSource(13)))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t3\t6\t%d\t%v\n", parties, len(pts), tr.Messages, counts)
	}
	return w.Flush()
}

// runE15 measures the Folk-IS delay-tolerant network: delivery ratio and
// latency for the epidemic strategy vs the no-cooperation baseline, across
// population densities.
func runE15(cfg config) error {
	w := newTab()
	fmt.Fprintln(w, "nodes\tlocations\trouting\tsteps\tdelivery\tp50-lat\tp95-lat\tcopies\tdrops")
	cases := []struct{ nodes, locations int }{{20, 10}, {50, 25}, {100, 50}}
	if cfg.quick {
		cases = cases[:2]
	}
	for _, c := range cases {
		for _, r := range []folkis.Routing{folkis.Direct, folkis.Epidemic} {
			sim, err := folkis.NewSim(folkis.Config{
				Nodes: c.nodes, Locations: c.locations,
				BufferCap: 64, Routing: r, Seed: 21,
			})
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(22))
			for i := 0; i < c.nodes; i++ {
				from := fmt.Sprintf("n%d", rng.Intn(c.nodes))
				to := fmt.Sprintf("n%d", rng.Intn(c.nodes))
				if from == to {
					continue
				}
				if _, err := sim.Send(from, to, []byte("ciphertext")); err != nil {
					return err
				}
			}
			const steps = 120
			sim.Run(steps)
			st := sim.Stats()
			// Delivery latencies are step counts <= the step budget, so a
			// histogram with one bucket per step makes Quantile exact.
			bounds := make([]int64, steps)
			for i := range bounds {
				bounds[i] = int64(i + 1)
			}
			lat := obs.NewRegistry().Histogram("folkis_delivery_steps", bounds)
			for _, l := range sim.Latencies() {
				lat.Observe(int64(l))
			}
			p50, _ := lat.Quantile(0.50)
			p95, _ := lat.Quantile(0.95)
			fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%.0f%%\t%d\t%d\t%d\t%d\n",
				c.nodes, c.locations, r, steps, 100*st.DeliveryRatio(), p50, p95, st.Copies, st.Drops)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("reading: cooperation (epidemic forwarding) buys near-total delivery with low")
	fmt.Println("latency where direct contact alone languishes — with zero infrastructure.")
	return nil
}

// runE16 measures the spatio-temporal store: query cost with time+bbox
// summary pruning vs the full scan, on random-walk GPS traces.
func runE16(cfg config) error {
	sizes := []int{10000, 50000, 200000}
	if cfg.quick {
		sizes = []int{10000, 50000}
	}
	w := newTab()
	fmt.Fprintln(w, "fixes\tpages\tquery(IO)\tscan(IO)\tpruned\tread\tmatches")
	for _, n := range sizes {
		alloc := flash.NewAllocator(newChip(cfg))
		tr := sptemp.New(alloc)
		rng := rand.New(rand.NewSource(31))
		var x, y int64
		var mid sptemp.Fix
		for i := 0; i < n; i++ {
			x += rng.Int63n(21) - 10
			y += rng.Int63n(21) - 10
			f := sptemp.Fix{T: int64(i), X: x, Y: y}
			if i == n/2 {
				mid = f
			}
			if err := tr.Append(f); err != nil {
				return err
			}
		}
		if err := tr.Flush(); err != nil {
			return err
		}
		reg := sptemp.Region{MinX: mid.X - 100, MinY: mid.Y - 100, MaxX: mid.X + 100, MaxY: mid.Y + 100}
		t0, t1 := int64(n/2-n/20), int64(n/2+n/20)
		chip := alloc.Chip()

		chip.ResetStats()
		fast, st, err := tr.Query(t0, t1, reg)
		if err != nil {
			return err
		}
		fastIO := chip.Stats().PageReads

		chip.ResetStats()
		slow, err := tr.ScanQuery(t0, t1, reg)
		if err != nil {
			return err
		}
		scanIO := chip.Stats().PageReads
		if len(fast) != len(slow) {
			return fmt.Errorf("E16: %d vs %d fixes", len(fast), len(slow))
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			n, tr.Pages(), fastIO, scanIO, st.SegmentsPruned, st.SegmentsRead, len(fast))
		tr.Drop()
	}
	return w.Flush()
}
