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
// cadence (kv compacts on every third, search reorganizes on every
// second), one evict/reopen cycle in the middle — must cost the same page
// I/O and leave the same bytes on flash as it did before the sort, the
// comparators and the packers stopped allocating. Vectors captured at the
// parent of that change; search's re-captured when its reorganization
// stopped re-sorting the compact index and merged only the new postings
// into it (526/547/113 → 234/255/53 page reads/writes/erases; the compact
// pages themselves are byte-identical, only the blocks they land in moved).
func TestOpScriptChipImageGolden(t *testing.T) {
	want := map[string]imageVector{
		"kv": {flash.Stats{PageReads: 174, PageWrites: 192, BlockErases: 41},
			"0:1 1:1 2:6 3:6 4:5 5:6 6:4 7:4 8:5 9:3",
			"8ec7b12a2f0c98b8f76f3e802de020014eceb38aaaceab7b61fdef825f83bf06"},
		"search": {flash.Stats{PageReads: 234, PageWrites: 255, BlockErases: 53},
			"0:1 1:1 2:8 3:8 4:8 5:8 6:8 7:7 8:4",
			"e6663934fc05ece8144f27e0251ec055c2c97a52644e6fa1a473eb1196d10312"},
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
			for op := 0; op < ops; op++ {
				if err := st.Apply(op); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
				if (op+1)%k.SyncEvery == 0 {
					if err := st.Sync(); err != nil {
						t.Fatalf("sync after op %d: %v", op, err)
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
				}
			}
			want[k.Name].check(t, chip)
		})
	}
}

// embdb's reorganization is not on the hosted script: pin it directly.
// 600 postings over 41 keys sort into 19 runs and three merge passes at
// fan-in 3 before the tree is built bottom-up. Once the tree is complete
// the fold drops the Keys and summary logs it was built from: against the
// vector captured before SelectIndex owned its tree, the tree's pages and
// every read and write are unchanged, and the only additions are the
// erases of those logs' blocks.
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
	// Was {210, 295, 35}, without the erases of blocks 1 2 4 6 8 10, and
	// eb5b06cb… over the pages of the two logs too: the same chip as the
	// old fold followed by dropping the sequential index.
	imageVector{flash.Stats{PageReads: 210, PageWrites: 295, BlockErases: 41},
		"1:1 2:1 4:1 6:1 8:1 10:1 12:1 13:1 14:3 15:1 16:1 17:3 18:1 19:1 20:3 21:1 22:1 23:3 24:2 25:2 26:3 27:2 28:2 29:2 30:2",
		"dd0e3b386e30492bd5c4e013c0cfcb852d033332db0dee8fefa767938508eb6d"}.check(t, chip)
}
