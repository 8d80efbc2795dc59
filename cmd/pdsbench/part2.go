package main

import (
	"fmt"
	"os"
	"text/tabwriter"

	"pds/internal/embdb"
	"pds/internal/flash"
	"pds/internal/mcu"
	"pds/internal/search"
	"pds/internal/workload"
)

// paperGeometry mirrors the device class of the tutorial's Part II: 2 KiB
// NAND pages, 64-page blocks.
func paperGeometry() flash.Geometry {
	return flash.Geometry{PageSize: 2048, PagesPerBlock: 64, Blocks: 1 << 15}
}

// newChip builds a paper-geometry chip wired to the invocation's metrics
// registry (a no-op when -metrics was not requested).
func newChip(cfg config) *flash.Chip {
	chip := flash.NewChip(paperGeometry())
	chip.SetObserver(cfg.obs)
	return chip
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

// runE1 reproduces the slide's "Summary Scan (17 IOs) vs Table scan
// (640 IOs)" comparison for CUSTOMER.CITY='Lyon' and sweeps the table size.
func runE1(cfg config) error {
	sizes := []int{80, 160, 320, 640}
	if cfg.quick {
		sizes = []int{160, 640}
	}
	w := newTab()
	fmt.Fprintln(w, "table(pages)\trows\tmatches\ttablescan(IO)\tsummaryscan(IO)\tsummary\tkeys-read\tfalse-reads\tspeedup")
	for _, targetPages := range sizes {
		alloc := flash.NewAllocator(newChip(cfg))
		tbl := embdb.NewTable(alloc, "CUSTOMER", embdb.NewSchema(
			embdb.Column{Name: "name", Type: embdb.Str},
			embdb.Column{Name: "city", Type: embdb.Str},
			embdb.Column{Name: "address", Type: embdb.Str},
		))
		ix, err := embdb.NewSelectIndex(tbl, "city")
		if err != nil {
			return err
		}
		pad := embdb.StrVal(string(make([]byte, 120))) // wide TPC-D-like row
		rows := 0
		for tbl.Pages() < targetPages {
			city := fmt.Sprintf("city%03d", rows%97)
			if rows%500 == 0 {
				city = "Lyon"
			}
			rid, err := tbl.Insert(embdb.Row{
				embdb.StrVal(fmt.Sprintf("Customer#%06d", rows)),
				embdb.StrVal(city), pad,
			})
			if err != nil {
				return err
			}
			if err := ix.Add(embdb.StrVal(city), rid); err != nil {
				return err
			}
			rows++
		}
		if err := tbl.Flush(); err != nil {
			return err
		}
		if err := ix.Flush(); err != nil {
			return err
		}
		chip := alloc.Chip()

		chip.ResetStats()
		scanRids, err := tbl.ScanFilter("city", embdb.StrVal("Lyon"))
		if err != nil {
			return err
		}
		scanIO := chip.Stats().PageReads

		chip.ResetStats()
		sumRids, st, err := ix.Lookup(embdb.StrVal("Lyon"))
		if err != nil {
			return err
		}
		sumIO := chip.Stats().PageReads
		if len(scanRids) != len(sumRids) {
			return fmt.Errorf("E1: scan %d matches vs summary %d", len(scanRids), len(sumRids))
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.1fx\n",
			tbl.Pages(), rows, len(sumRids), scanIO, sumIO,
			st.SummaryPages, st.KeyPagesRead, st.FalseReads,
			float64(scanIO)/float64(sumIO))
	}
	return w.Flush()
}

// runE2 measures lookup cost before/after reorganizing the sequential
// index into the B-tree-like structure, and the (log-only) cost of the
// reorganization itself.
func runE2(cfg config) error {
	sizes := []int{1000, 10000, 100000, 1000000}
	if cfg.quick {
		sizes = []int{1000, 10000}
	}
	w := newTab()
	fmt.Fprintln(w, "entries\tseq-lookup(IO)\ttree-lookup(IO)\theight\ttree(pages)\treorg-reads\treorg-writes\treorg-erases")
	for _, n := range sizes {
		alloc := flash.NewAllocator(newChip(cfg))
		tbl := embdb.NewTable(alloc, "T", embdb.NewSchema(embdb.Column{Name: "v", Type: embdb.Int}))
		ix, err := embdb.NewSelectIndex(tbl, "v")
		if err != nil {
			return err
		}
		domain := int64(n / 10)
		for i := 0; i < n; i++ {
			v := embdb.IntVal(int64(i) % domain)
			rid, err := tbl.Insert(embdb.Row{v})
			if err != nil {
				return err
			}
			if err := ix.Add(v, rid); err != nil {
				return err
			}
		}
		if err := ix.Flush(); err != nil {
			return err
		}
		chip := alloc.Chip()
		probe := embdb.IntVal(domain / 2)

		chip.ResetStats()
		if _, _, err := ix.Lookup(probe); err != nil {
			return err
		}
		seqIO := chip.Stats().PageReads

		chip.ResetStats()
		dirty := alloc.Dirty()
		if err := ix.Reorganize(16, 8); err != nil {
			return err
		}
		reorg := owed(alloc, dirty)

		chip.ResetStats()
		if _, _, err := ix.Lookup(probe); err != nil {
			return err
		}
		treeIO := chip.Stats().PageReads

		tree := ix.Tree()
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			n, seqIO, treeIO, tree.Height(), tree.Pages(),
			reorg.PageReads, reorg.PageWrites, reorg.BlockErases)
	}
	return w.Flush()
}

// owed is the I/O on alloc's chip since its stats were reset, with the
// erases a structure owes: a freed block's erase is not paid on the spot,
// so the blocks left dirty since the allocator held dirty0 count as well.
func owed(alloc *flash.Allocator, dirty0 int) flash.Stats {
	s := alloc.Chip().Stats()
	s.BlockErases += int64(alloc.Dirty() - dirty0)
	return s
}

// runE3 measures the embedded search engine: pipelined merge cost vs
// corpus size and keyword count, and the RAM wall the naive evaluation
// hits.
func runE3(cfg config) error {
	corpora := []int{1000, 5000, 20000}
	if cfg.quick {
		corpora = []int{1000, 5000}
	}
	w := newTab()
	fmt.Fprintln(w, "docs\tindex(pages)\tkeywords\treads(IO)\tRAM-highwater(B)\tnaive-RAM(B)")
	for _, n := range corpora {
		chip := newChip(cfg)
		arena := mcu.NewArena(0)
		eng, err := search.NewEngine(flash.NewAllocator(chip), arena, 8)
		if err != nil {
			return err
		}
		eng.SetObserver(cfg.obs)
		docs := workload.Documents(n, 5000, 8, 7)
		for _, d := range docs {
			if _, err := eng.AddDocument(d); err != nil {
				return err
			}
		}
		if err := eng.Flush(); err != nil {
			return err
		}
		queries := [][]string{
			{"term00000"},
			{"term00000", "term00001"},
			{"term00000", "term00001", "term00002", "term00003"},
		}
		for _, kws := range queries {
			arena.ResetHighWater()
			chip.ResetStats()
			if _, err := eng.Search(kws, 10); err != nil {
				return err
			}
			reads := chip.Stats().PageReads
			hw := arena.HighWater()

			arena.ResetHighWater()
			if _, err := eng.NaiveSearch(kws, 10); err != nil {
				return err
			}
			naiveHW := arena.HighWater()
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
				n, eng.Pages(), len(kws), reads, hw, naiveHW)
		}
		eng.Close()
	}
	if err := w.Flush(); err != nil {
		return err
	}

	// The MCU wall: with a sensor-class RAM budget the pipelined query
	// still runs; the naive one cannot.
	chip := newChip(cfg)
	arena := mcu.NewArena(24 << 10) // 24 KiB
	eng, err := search.NewEngine(flash.NewAllocator(chip), arena, 4)
	if err != nil {
		return err
	}
	eng.SetObserver(cfg.obs)
	defer eng.Close()
	for _, d := range workload.Documents(5000, 200, 6, 8) {
		if _, err := eng.AddDocument(d); err != nil {
			return err
		}
	}
	kws := []string{"term00000", "term00001"}
	_, errP := eng.Search(kws, 10)
	_, errN := eng.NaiveSearch(kws, 10)
	fmt.Printf("24 KiB RAM budget, 5000 docs: pipelined=%v, naive=%v\n",
		errStr(errP), errStr(errN))
	return nil
}

func errStr(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// runE4 compares the Tselect/Tjoin pipeline against the index-free
// baseline on the slide's 5-table query.
func runE4(cfg config) error {
	scales := []float64{0.0005, 0.002, 0.01}
	if cfg.quick {
		scales = []float64{0.0005, 0.002}
	}
	w := newTab()
	fmt.Fprintln(w, "SF\tlineitems\tresults\tindexed(IO)\tnaive(IO)\tspeedup\tindexed-tuples\tnaive-tuples")
	for _, sf := range scales {
		alloc := flash.NewAllocator(newChip(cfg))
		db := embdb.NewDB(alloc, mcu.NewArena(0))
		db.SetObserver(cfg.obs)
		scale := workload.StarScaleFactor(sf)
		if err := workload.BuildStar(db, scale, 11); err != nil {
			return err
		}
		if err := db.Flush(); err != nil {
			return err
		}
		q := embdb.StarQuery{
			Root: "LINEITEM",
			Conds: []embdb.Cond{
				{Table: "CUSTOMER", Col: "mktsegment", Val: embdb.StrVal("HOUSEHOLD")},
				{Table: "SUPPLIER", Col: "name", Val: embdb.StrVal("SUPPLIER-1")},
			},
			Project: []embdb.ColRef{
				{Table: "CUSTOMER", Col: "name"},
				{Table: "SUPPLIER", Col: "name"},
				{Table: "LINEITEM", Col: "qty"},
				{Table: "ORDERS", Col: "priority"},
			},
		}
		chip := alloc.Chip()
		chip.ResetStats()
		rows, err := db.ExecuteStar(q)
		if err != nil {
			return err
		}
		indexed, err := rows.All()
		if err != nil {
			return err
		}
		idxStats := rows.Stats()
		idxIO := chip.Stats().PageReads

		chip.ResetStats()
		naive, nStats, err := db.ExecuteStarNaive(q)
		if err != nil {
			return err
		}
		naiveIO := chip.Stats().PageReads
		if len(indexed) != len(naive) {
			return fmt.Errorf("E4: indexed %d rows vs naive %d", len(indexed), len(naive))
		}
		fmt.Fprintf(w, "%.4f\t%d\t%d\t%d\t%d\t%.1fx\t%d\t%d\n",
			sf, scale.LineItems, len(indexed), idxIO, naiveIO,
			float64(naiveIO)/float64(idxIO), idxStats.TuplesFetched, nStats.TuplesFetched)
	}
	return w.Flush()
}

// runE5 contrasts the write pattern of the log-only index with the
// update-in-place baseline, including simulated device time.
func runE5(cfg config) error {
	sizes := []int{200, 500, 1000}
	if cfg.quick {
		sizes = []int{200, 500}
	}
	model := flash.DefaultCostModel()
	w := newTab()
	fmt.Fprintln(w, "inserts\tstructure\treads\twrites\terases\tsim-time")
	for _, n := range sizes {
		// In-place baseline.
		allocA := flash.NewAllocator(newChip(cfg))
		inplace := embdb.NewInPlaceIndex(allocA)
		allocA.Chip().ResetStats()
		dirtyA := allocA.Dirty()
		for i := 0; i < n; i++ {
			if err := inplace.Insert(embdb.Key(embdb.IntVal(int64(i*7919%100000))), embdb.RowID(i)); err != nil {
				return err
			}
		}
		sA := owed(allocA, dirtyA)
		fmt.Fprintf(w, "%d\tupdate-in-place\t%d\t%d\t%d\t%v\n",
			n, sA.PageReads, sA.PageWrites, sA.BlockErases, sA.Cost(model).Round(10e3))

		// Log-structured (Keys + summaries).
		allocB := flash.NewAllocator(newChip(cfg))
		tbl := embdb.NewTable(allocB, "t", embdb.NewSchema(embdb.Column{Name: "v", Type: embdb.Int}))
		ix, err := embdb.NewSelectIndex(tbl, "v")
		if err != nil {
			return err
		}
		allocB.Chip().ResetStats()
		dirtyB := allocB.Dirty()
		for i := 0; i < n; i++ {
			if err := ix.Add(embdb.IntVal(int64(i*7919%100000)), embdb.RowID(i)); err != nil {
				return err
			}
		}
		if err := ix.Flush(); err != nil {
			return err
		}
		sB := owed(allocB, dirtyB)
		fmt.Fprintf(w, "%d\tlog-structured\t%d\t%d\t%d\t%v\n",
			n, sB.PageReads, sB.PageWrites, sB.BlockErases, sB.Cost(model).Round(10e3))

		if n == sizes[len(sizes)-1] {
			if err := w.Flush(); err != nil {
				return err
			}
			// Wear ablation: the in-place structure hammers the same few
			// blocks (its sorted array lives in place), while the log
			// spreads erases — a device-lifetime argument on top of the
			// performance one.
			maxA, touchedA := wearProfile(allocA.Chip())
			maxB, touchedB := wearProfile(allocB.Chip())
			fmt.Printf("wear after %d inserts: in-place max-erases/block=%d over %d blocks; log max=%d over %d blocks\n",
				n, maxA, touchedA, maxB, touchedB)
		}
	}
	return w.Flush()
}

// wearProfile returns the max per-block erase count and how many blocks
// were ever erased.
func wearProfile(chip *flash.Chip) (maxWear int64, touched int) {
	for b := 0; b < chip.Geometry().Blocks; b++ {
		w, err := chip.Wear(b)
		if err != nil {
			return 0, 0
		}
		if w > 0 {
			touched++
		}
		if w > maxWear {
			maxWear = w
		}
	}
	return maxWear, touched
}
