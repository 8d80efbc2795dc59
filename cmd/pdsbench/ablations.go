package main

import (
	"fmt"
	"time"

	"pds/internal/embdb"
	"pds/internal/flash"
	"pds/internal/gquery"
	"pds/internal/mcu"
	"pds/internal/netsim"
	"pds/internal/search"
	"pds/internal/ssi"
	"pds/internal/workload"
)

// runE17 ablates three design choices DESIGN.md calls out:
//
//	(a) the Bloom summary budget (bits per key) — summary size vs false
//	    page reads in the summary scan;
//	(b) the search engine's hash bucket count — insertion-buffer RAM vs
//	    query selectivity;
//	(c) the secure-agg chunk size — worker fan-out vs per-chunk overhead.
func runE17(cfg config) error {
	fmt.Println("-- (a) Bloom summary bits/key (4000-row CUSTOMER, 8 distinct probes) --")
	w := newTab()
	fmt.Fprintln(w, "bits/key\tsummary-pages\tlookup(IO)\tfalse-reads")
	for _, bits := range []int{2, 4, 8, 16, 32} {
		alloc := flash.NewAllocator(newChip(cfg))
		tbl := embdb.NewTable(alloc, "CUSTOMER", embdb.NewSchema(
			embdb.Column{Name: "city", Type: embdb.Str},
			embdb.Column{Name: "pad", Type: embdb.Str},
		))
		ix, err := embdb.NewSelectIndex(tbl, "city")
		if err != nil {
			return err
		}
		ix.SummaryBits = bits
		pad := embdb.StrVal(string(make([]byte, 100)))
		for i := 0; i < 4000; i++ {
			city := fmt.Sprintf("city%04d", i%997)
			rid, err := tbl.Insert(embdb.Row{embdb.StrVal(city), pad})
			if err != nil {
				return err
			}
			if err := ix.Add(embdb.StrVal(city), rid); err != nil {
				return err
			}
		}
		if err := ix.Flush(); err != nil {
			return err
		}
		chip := alloc.Chip()
		chip.ResetStats()
		falseReads := 0
		for p := 0; p < 8; p++ {
			_, st, err := ix.Lookup(embdb.StrVal(fmt.Sprintf("city%04d", p*113)))
			if err != nil {
				return err
			}
			falseReads += st.FalseReads
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n",
			bits, ix.SummaryPages(), chip.Stats().PageReads/8, falseReads)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println("\n-- (b) search hash buckets (5000 docs, 2-keyword query) --")
	w = newTab()
	fmt.Fprintln(w, "buckets\tbuffer-RAM(KiB)\tquery(IO)")
	docs := workload.Documents(5000, 500, 6, 8)
	for _, buckets := range []int{1, 2, 4, 8, 16, 32} {
		chip := newChip(cfg)
		arena := mcu.NewArena(0)
		eng, err := search.NewEngine(flash.NewAllocator(chip), arena, buckets)
		if err != nil {
			return err
		}
		for _, d := range docs {
			if _, err := eng.AddDocument(d); err != nil {
				return err
			}
		}
		if err := eng.Flush(); err != nil {
			return err
		}
		chip.ResetStats()
		if _, err := eng.Search([]string{"term00000", "term00001"}, 10); err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\n",
			buckets, buckets*chip.Geometry().PageSize>>10, chip.Stats().PageReads)
		eng.Close()
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("more buckets = more standing RAM but shorter, purer chains per term.")

	fmt.Println("\n-- (c) secure-agg chunk size (200 PDSs × 3 tuples) --")
	kr, err := gquery.KeyringFrom(make([]byte, 32))
	if err != nil {
		return err
	}
	parts := workload.Participants(200, 3, 42)
	w = newTab()
	fmt.Fprintln(w, "chunk\tchunks\tworkers\tmsgs\tbytes\tsim-time")
	for _, chunk := range []int{8, 32, 128, 600} {
		net := netsim.New()
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		_, stats, err := gquery.New().SecureAgg(net, srv, parts, kr, chunk)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%v\n",
			chunk, stats.Chunks, stats.WorkerCalls, stats.Net.Messages,
			stats.Net.Bytes, time.Duration(stats.CriticalPath.TotalNS).Round(time.Millisecond))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Println("small chunks spread trust/load over many worker tokens; large chunks")
	fmt.Println("minimize messages but concentrate plaintext exposure in fewer tokens.")
	return nil
}
