package durable_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"pds/internal/durable"
	"pds/internal/embdb"
	"pds/internal/flash"
	"pds/internal/logstore"
)

// hostedGeometry is the chip a hosted tenant gets (tenant.tenantGeometry):
// small pages make the external sorts run many runs and two merge passes.
func hostedGeometry() flash.Geometry {
	return flash.Geometry{PageSize: 256, PagesPerBlock: 8, Blocks: 128}
}

// chipImage is everything a reorganization leaves on a chip that the
// virtual clock or a later reader can see: the operation counters, the
// erase count of every block that was ever erased, and a SHA-256 over
// every programmed page (number, length, bytes).
func chipImage(t *testing.T, chip *flash.Chip) (stats flash.Stats, wear, pages string) {
	t.Helper()
	stats = chip.Stats()
	g := chip.Geometry()
	var w strings.Builder
	for b := 0; b < g.Blocks; b++ {
		n, err := chip.Wear(b)
		if err != nil {
			t.Fatal(err)
		}
		if n > 0 {
			fmt.Fprintf(&w, "%d:%d ", b, n)
		}
	}
	h := sha256.New()
	var num [8]byte
	for n := 0; n < g.TotalPages(); n++ {
		ok, err := chip.Written(n)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue
		}
		img, err := chip.Page(n)
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(num[:4], uint32(n))
		binary.LittleEndian.PutUint32(num[4:], uint32(len(img)))
		h.Write(num[:])
		h.Write(img)
	}
	return stats, strings.TrimSpace(w.String()), hex.EncodeToString(h.Sum(nil))
}

type imageVector struct {
	stats flash.Stats
	wear  string
	pages string
}

func (v imageVector) check(t *testing.T, chip *flash.Chip) {
	t.Helper()
	stats, wear, pages := chipImage(t, chip)
	if stats != v.stats || wear != v.wear || pages != v.pages {
		t.Errorf("chip image moved:\n got {flash.Stats{PageReads: %d, PageWrites: %d, BlockErases: %d}, %q, %q}\nwant {%+v, %q, %q}",
			stats.PageReads, stats.PageWrites, stats.BlockErases, wear, pages, v.stats, v.wear, v.pages)
	}
}

// The hosted op script of every engine — Apply, Sync at the kind's
// cadence and the reorganization a boundary owes right after it (kv
// compacts on every third, search reorganizes on every second, counted
// from each Open or Reopen of the script's store, as when the store kept
// the count), one evict/reopen cycle in the middle — must cost the same page
// I/O and leave the same bytes on flash as it did before the sort, the
// comparators and the packers stopped allocating. Vectors captured at the
// parent of that change; search's re-captured when its reorganization
// stopped re-sorting the compact index and merged only the new postings
// into it (526/547/113 → 234/255/53 page reads/writes/erases; the compact
// pages themselves are byte-identical, only the blocks they land in moved).
// kv's and search's re-captured again when the sort's final merge stopped
// going through a log on flash, kv's compaction started sorting only the
// bindings after its leading ascending run and reading values through one
// held page (kv 174/192/41 → 91/151/27, search 234/255/53 → 184/205/37;
// again only the blocks the pages land in moved). Re-captured once more
// when a freed block stopped being erased on the spot: reads and writes
// are unchanged, and the erases of the blocks still dirty at the end are
// owed, not paid (kv 27 → 21, search 37 → 33, the same blocks' wear in
// each map one lower). Those blocks' pages stay programmed with empty
// images, which is all that moved the page digest: over the non-empty
// pages it is still a90e8b31… (kv) and 277d58c9… (search).
// Re-captured when a sync stopped reorganizing first and the owed
// reorganization became its own call, made right after the Sync: the
// same page I/O and wear, but each such boundary's commit record now
// lands before the rebuild instead of after it, which moves the page
// digest (kv f1ffc513… → 236510bd…, search c6f6405d… → 87fb2d2f…).
func TestOpScriptChipImageGolden(t *testing.T) {
	want := map[string]imageVector{
		"kv": {flash.Stats{PageReads: 91, PageWrites: 151, BlockErases: 21},
			"0:1 1:1 2:3 3:2 4:3 5:3 6:2 7:2 8:2 9:1 10:1",
			"236510bdcb55547fb96c8778dfe8c7248a8100865edb2c4a0fa7e9be4116dca5"},
		"search": {flash.Stats{PageReads: 184, PageWrites: 205, BlockErases: 33},
			"0:1 1:1 2:6 3:7 4:5 5:5 6:4 7:2 8:2",
			"87fb2d2f0af3a571c3873ff23018056767963b355e44cbd82f8c7011fde3db0b"},
		"embdb": {flash.Stats{PageReads: 21, PageWrites: 45, BlockErases: 0},
			"",
			"5e97fc498c49aa13ad51221fdeb5c2909276454d9db66916759b2ddfcbd872b9"},
	}
	for _, k := range durable.Kinds() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			chip := flash.NewChip(hostedGeometry())
			st, err := k.Open(flash.NewAllocator(chip))
			if err != nil {
				t.Fatal(err)
			}
			ops := 3 * k.Ops
			syncs := 0
			for op := 0; op < ops; op++ {
				if err := st.Apply(op); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if (op+1)%k.SyncEvery == 0 {
					if err := st.Sync(); err != nil {
						t.Fatalf("sync after op %d: %v", op, err)
					}
					if syncs++; k.Owes(syncs) {
						if err := st.Reorganize(); err != nil {
							t.Fatalf("reorganize after op %d: %v", op, err)
						}
					}
				}
				if op+1 == ops/2/k.SyncEvery*k.SyncEvery {
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					rec, err := logstore.Recover(chip, nil)
					if err != nil {
						t.Fatal(err)
					}
					if st, err = k.Reopen(rec); err != nil {
						t.Fatal(err)
					}
					syncs = 0
				}
			}
			want[k.Name].check(t, chip)
		})
	}
}

// embdb's reorganization is not on the hosted script: pin it directly.
// 600 postings over 41 keys sort into 19 runs; two merge passes at fan-in
// 3 leave three, whose merge feeds the tree built bottom-up. Once the tree
// is complete the fold drops the Keys and summary logs it was built from:
// against the vector captured before SelectIndex owned its tree, the
// tree's pages are unchanged, the additions are the erases of those logs'
// blocks, and the savings are the 38 pages of the sorted log the final
// merge no longer writes and reads back, and its five blocks' erases.
func TestSelectIndexReorganizeChipImageGolden(t *testing.T) {
	chip := flash.NewChip(hostedGeometry())
	alloc := flash.NewAllocator(chip)
	tbl := embdb.NewTable(alloc, "CUSTOMER", embdb.NewSchema(
		embdb.Column{Name: "id", Type: embdb.Int}, embdb.Column{Name: "city", Type: embdb.Str}))
	ix, err := embdb.NewSelectIndex(tbl, "city")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		city := embdb.StrVal(fmt.Sprintf("city-%02d", i*7%41))
		rid, err := tbl.Insert(embdb.Row{embdb.IntVal(int64(i)), city})
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Add(city, rid); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Reorganize(2, 3); err != nil {
		t.Fatal(err)
	}
	rids, _, err := ix.Lookup(embdb.StrVal("city-07"))
	if err != nil || len(rids) != 15 {
		t.Fatalf("tree lookup = %d rids, %v", len(rids), err)
	}
	// Was {210, 295, 41} while the final merge wrote the sorted log, and
	// {210, 295, 35} before that, without the erases of blocks 1 2 4 6 8
	// 10, and eb5b06cb… over the pages of the two logs too: the same chip
	// as the old fold followed by dropping the sequential index. Was
	// {172, 257, 36} and acadaeb5… while a freed block was erased on the
	// spot: the 19 erases of blocks still dirty at the end are owed, not
	// paid, and their pages stay programmed with empty images (over the
	// non-empty pages the digest is still acadaeb5…).
	imageVector{flash.Stats{PageReads: 172, PageWrites: 257, BlockErases: 17},
		"14:2 17:2 20:2 22:1 23:2 24:1 25:1 26:2 27:1 28:1 29:1 30:1",
		"75bda38cd2f5855190ab4db387a00fe0bb3ca87db009ce82d2d81580fc3cfa29"}.check(t, chip)
}

// ByName reads a table built once: resolving an engine rebuilds no Kind.
func TestByNameResolvesWithoutAllocating(t *testing.T) {
	for _, want := range durable.Kinds() {
		k, ok := durable.ByName(want.Name)
		if !ok || k.Name != want.Name || k.Ops != want.Ops || k.SyncEvery != want.SyncEvery || k.ReorgEvery != want.ReorgEvery {
			t.Fatalf("ByName(%q) = %+v, %v", want.Name, k, ok)
		}
	}
	if _, ok := durable.ByName("nosuch"); ok {
		t.Error("ByName resolved an unknown engine")
	}
	if allocs := testing.AllocsPerRun(50, func() { durable.ByName("embdb") }); allocs != 0 {
		t.Errorf("ByName: %.1f allocs, want 0", allocs)
	}
}
