package logstore

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pds/internal/flash"
	"pds/internal/obs"
)

func testChip() *flash.Chip { return flash.NewChip(flash.SmallGeometry()) }

// appendN appends n deterministic records to l.
func appendN(t *testing.T, l *Log, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("record-%04d-padding-padding", i))); err != nil {
			t.Fatal(err)
		}
	}
}

// logContents drains a log into a slice of strings.
func logContents(t *testing.T, l *Log) []string {
	t.Helper()
	var out []string
	it := l.Iter()
	for {
		rec, _, ok := it.Next()
		if !ok {
			break
		}
		out = append(out, string(rec))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// OpenSummarized after Recover yields the committed summaries, and the
// reopened log goes on summarizing its new pages.
func TestOpenSummarizedAfterRecover(t *testing.T) {
	chip := testChip()
	alloc := flash.NewAllocator(chip)
	j, err := NewJournal(alloc)
	if err != nil {
		t.Fatal(err)
	}
	l := NewSummarized(alloc, countSummary)
	appendN(t, l, 0, 120)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(&Manifest{Streams: []Stream{StreamOf("data", l), l.SummaryStream("sums")}}); err != nil {
		t.Fatal(err)
	}
	want := summaryContents(t, l)
	// Uncommitted pages and summaries after the commit point.
	appendN(t, l, 120, 40)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(chip.Reopen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := rec.OpenSummarized("data", "sums", countSummary)
	if err != nil {
		t.Fatal(err)
	}
	if got := summaryContents(t, l2); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("recovered summaries %q, committed %q", got, want)
	}
	appendN(t, l2, 120, 40)
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := summaryContents(t, l2); len(got) != l2.Pages() || fmt.Sprint(got[:len(want)]) != fmt.Sprint(want) {
		t.Errorf("%d summaries for %d pages after the reopen", len(got), l2.Pages())
	}
}

func TestJournalCommitRecoverRoundTrip(t *testing.T) {
	chip := testChip()
	alloc := flash.NewAllocator(chip)
	j, err := NewJournal(alloc)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(alloc)
	appendN(t, l, 0, 50)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	m := &Manifest{Streams: []Stream{StreamOf("data", l)}, App: []byte("app-state")}
	if err := j.Commit(m); err != nil {
		t.Fatal(err)
	}
	if m.Seq != 1 {
		t.Fatalf("seq = %d, want 1", m.Seq)
	}

	// Uncommitted garbage after the commit point.
	appendN(t, l, 50, 30)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	rec, err := Recover(chip.Reopen(), reg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest == nil || rec.Manifest.Seq != 1 {
		t.Fatalf("manifest = %+v, want seq 1", rec.Manifest)
	}
	if !bytes.Equal(rec.App(), []byte("app-state")) {
		t.Fatalf("app = %q", rec.App())
	}
	l2, err := rec.OpenLog("data")
	if err != nil {
		t.Fatal(err)
	}
	got := logContents(t, l2)
	if len(got) != 50 {
		t.Fatalf("recovered %d records, want 50 (the committed prefix)", len(got))
	}
	for i, s := range got {
		if s != fmt.Sprintf("record-%04d-padding-padding", i) {
			t.Fatalf("record %d = %q", i, s)
		}
	}
	// The recovered log accepts further appends and a further commit.
	appendN(t, l2, 50, 10)
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Journal.Commit(&Manifest{Streams: []Stream{StreamOf("data", l2)}}); err != nil {
		t.Fatal(err)
	}
	if rec.Journal.Seq() != 2 {
		t.Fatalf("seq after recommit = %d, want 2", rec.Journal.Seq())
	}
	// Recovery work was metered.
	if v := reg.CounterValue(flash.MetricRecoveryRuns); v != 1 {
		t.Fatalf("recovery runs = %d", v)
	}
	if v := reg.CounterValue(flash.MetricRecoveryPageReads); v == 0 {
		t.Fatal("no recovery page reads metered")
	}
}

func TestRecoverEmptyChip(t *testing.T) {
	chip := testChip()
	rec, err := Recover(chip, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest != nil {
		t.Fatalf("manifest on empty chip: %+v", rec.Manifest)
	}
	l, err := rec.OpenLog("data")
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 0 {
		t.Fatalf("len = %d", l.Len())
	}
	if err := rec.Journal.Commit(&Manifest{}); err != nil {
		t.Fatal(err)
	}
}

// The newest valid record wins, even with many records across a rolled
// journal block.
func TestJournalRollsBlocksNewestRecordWins(t *testing.T) {
	chip := testChip()
	alloc := flash.NewAllocator(chip)
	j, err := NewJournal(alloc)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(alloc)
	n := 3 * chip.Geometry().PagesPerBlock // forces at least two rolls
	for i := 0; i < n; i++ {
		appendN(t, l, i, 1)
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := j.Commit(&Manifest{Streams: []Stream{StreamOf("data", l)}}); err != nil {
			t.Fatal(err)
		}
	}
	if j.Seq() != uint64(n) {
		t.Fatalf("seq = %d, want %d", j.Seq(), n)
	}
	rec, err := Recover(chip.Reopen(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Manifest.Seq != uint64(n) {
		t.Fatalf("recovered seq = %d, want %d", rec.Manifest.Seq, n)
	}
	l2, err := rec.OpenLog("data")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(logContents(t, l2)); got != n {
		t.Fatalf("recovered %d records, want %d", got, n)
	}
}

// A dirty tail (uncommitted pages in the committed last block) is
// tail-copied; the dirty block is retired only after the next commit,
// which frees it: from then on its erase is owed.
func TestRecoverTailCopyRetiresAfterCommit(t *testing.T) {
	chip := testChip()
	alloc := flash.NewAllocator(chip)
	j, err := NewJournal(alloc)
	if err != nil {
		t.Fatal(err)
	}
	l := NewLog(alloc)
	appendN(t, l, 0, 5)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(&Manifest{Streams: []Stream{StreamOf("data", l)}}); err != nil {
		t.Fatal(err)
	}
	committedPages := l.Pages()
	// Garbage pages land in the same block.
	appendN(t, l, 5, 5)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(l.Blocks()) != 1 {
		t.Fatalf("test expects a single-block log, got %v", l.Blocks())
	}
	dirty := l.Blocks()[0]

	reg := obs.NewRegistry()
	chip2 := chip.Reopen()
	rec, err := Recover(chip2, reg)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := rec.OpenLog("data")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(logContents(t, l2)); got != 5 {
		t.Fatalf("recovered %d records, want 5", got)
	}
	if v := reg.CounterValue(flash.MetricRecoveryTailCopyPages); v != int64(committedPages) {
		t.Fatalf("tail-copy pages = %d, want %d", v, committedPages)
	}
	// The dirty block must still be intact and owned (the on-flash
	// manifest references it) until the next commit frees it.
	owed := func() int64 { return chip2.Stats().BlockErases + int64(rec.Alloc.Dirty()) }
	owed0, inUse := owed(), rec.Alloc.InUse()
	if wc, _ := chip2.WrittenInBlock(dirty); wc == 0 {
		t.Fatal("dirty tail block erased before the next commit")
	}
	if err := rec.Journal.Commit(&Manifest{Streams: []Stream{StreamOf("data", l2)}}); err != nil {
		t.Fatal(err)
	}
	if d := owed() - owed0; d != 1 || rec.Alloc.InUse() != inUse-1 {
		t.Fatalf("the commit owes %d erases and holds %d blocks, want 1 and %d", d, rec.Alloc.InUse(), inUse-1)
	}
	if _, err := rec.Alloc.EraseDirty(rec.Alloc.Dirty()); err != nil {
		t.Fatal(err)
	}
	if wc, _ := chip2.WrittenInBlock(dirty); wc != 0 {
		t.Fatal("dirty tail block not reclaimed once its erase ran")
	}
	// And the recovered log still reads correctly afterwards.
	if got := len(logContents(t, l2)); got != 5 {
		t.Fatal("recovered log damaged by retirement")
	}
}

// A power cut between a Free and its erase: recovery finds the freed block
// still written and unowned, lists it dirty and leaks nothing, and the
// next Alloc that hands it out erases it before anything is programmed.
func TestRecoverCrashBetweenFreeAndErase(t *testing.T) {
	chip := testChip()
	alloc := flash.NewAllocator(chip)
	j, err := NewJournal(alloc)
	if err != nil {
		t.Fatal(err)
	}
	old := NewLog(alloc)
	appendN(t, old, 0, 5)
	if err := old.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(&Manifest{Streams: []Stream{StreamOf("data", old)}}); err != nil {
		t.Fatal(err)
	}
	l := NewLog(alloc)
	appendN(t, l, 10, 5)
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	freed := old.Blocks()[0]
	j.Retire(freed)
	if err := j.Commit(&Manifest{Streams: []Stream{StreamOf("data", l)}}); err != nil {
		t.Fatal(err)
	}
	if alloc.Dirty() != 1 || chip.Stats().BlockErases != 0 {
		t.Fatalf("after the switch: dirty=%d erases=%d, want 1 and 0", alloc.Dirty(), chip.Stats().BlockErases)
	}
	chip.Crash()

	chip2 := chip.Reopen()
	rec, err := Recover(chip2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Alloc.Dirty() != 1 || rec.Stats.BlocksReclaimed != 1 || chip2.Stats().BlockErases != 0 {
		t.Fatalf("recovery: dirty=%d reclaimed=%d erases=%d, want 1, 1 and 0",
			rec.Alloc.Dirty(), rec.Stats.BlocksReclaimed, chip2.Stats().BlockErases)
	}
	owned := 2 + len(l.Blocks()) // the journal area and the committed log
	if rec.Alloc.InUse() != owned || rec.Alloc.FreeBlocks() != chip2.Geometry().Blocks-owned {
		t.Fatalf("recovered allocator holds %d blocks and frees %d, want %d and %d",
			rec.Alloc.InUse(), rec.Alloc.FreeBlocks(), owned, chip2.Geometry().Blocks-owned)
	}
	l2, err := rec.OpenLog("data")
	if err != nil {
		t.Fatal(err)
	}
	if got := logContents(t, l2); len(got) != 5 || got[0] != "record-0010-padding-padding" {
		t.Fatalf("recovered the wrong log: %q", got)
	}
	b, err := rec.Alloc.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if b != freed {
		t.Fatalf("next Alloc = %d, want the lowest free block %d", b, freed)
	}
	if wc, _ := chip2.WrittenInBlock(b); wc != 0 || chip2.Stats().BlockErases != 1 || rec.Alloc.Dirty() != 0 {
		t.Fatalf("handed out unerased: %d pages, %d erases, %d dirty", wc, chip2.Stats().BlockErases, rec.Alloc.Dirty())
	}
	if err := chip2.WritePage(b*chip2.Geometry().PagesPerBlock, []byte("fresh")); err != nil {
		t.Fatal(err)
	}
}

// A crash in the middle of a commit leaves the previous record
// authoritative, for every crash point inside the commit.
func TestCommitCrashAtEveryPoint(t *testing.T) {
	for _, op := range []flash.CrashOp{flash.CrashWrite, flash.CrashTornWrite} {
		for after := 0; ; after++ {
			chip := testChip()
			alloc := flash.NewAllocator(chip)
			j, err := NewJournal(alloc)
			if err != nil {
				t.Fatal(err)
			}
			l := NewLog(alloc)
			appendN(t, l, 0, 5)
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := j.Commit(&Manifest{Streams: []Stream{StreamOf("data", l)}}); err != nil {
				t.Fatal(err)
			}
			// Arm: crash after `after` more successful writes, then try a
			// second commit cycle.
			chip.SetCrashPlan(&flash.CrashPlan{Seed: int64(after), Op: op, After: after})
			appendN(t, l, 5, 5)
			err = l.Flush()
			if err == nil {
				err = j.Commit(&Manifest{Streams: []Stream{StreamOf("data", l)}})
			}
			if err == nil {
				// Crash point beyond this workload: sweep done.
				if after == 0 {
					t.Fatal("crash never fired")
				}
				break
			}
			if !errors.Is(err, flash.ErrCrashed) {
				t.Fatalf("op=%v after=%d: %v", op, after, err)
			}
			rec, rerr := Recover(chip.Reopen(), nil)
			if rerr != nil {
				t.Fatalf("op=%v after=%d: recover: %v", op, after, rerr)
			}
			l2, oerr := rec.OpenLog("data")
			if oerr != nil {
				t.Fatalf("op=%v after=%d: open: %v", op, after, oerr)
			}
			got := len(logContents(t, l2))
			if got != 5 && got != 10 {
				t.Fatalf("op=%v after=%d: recovered %d records, want a committed prefix (5 or 10)", op, after, got)
			}
		}
	}
}

func TestManifestTooLarge(t *testing.T) {
	chip := testChip()
	alloc := flash.NewAllocator(chip)
	j, err := NewJournal(alloc)
	if err != nil {
		t.Fatal(err)
	}
	big := &Manifest{App: bytes.Repeat([]byte("x"), chip.Geometry().PageSize)}
	if err := j.Commit(big); !errors.Is(err, ErrManifestTooLarge) {
		t.Fatalf("got %v, want ErrManifestTooLarge", err)
	}
}

func TestManifestEncodeDecodeRoundTrip(t *testing.T) {
	g := flash.SmallGeometry()
	m := &Manifest{
		Streams: []Stream{
			{Name: "a", Blocks: []int{3, 7}, Pages: 9, Recs: 40},
			{Name: "b", Blocks: nil, Pages: 0, Recs: 0},
			{Name: "c", Blocks: []int{12}, Pages: 1, Recs: 2},
		},
		App: []byte{1, 2, 3},
	}
	payload, err := encodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeManifest(payload, g)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Streams) != 3 || got.Streams[0].Name != "a" || got.Streams[0].Pages != 9 ||
		got.Streams[0].Recs != 40 || len(got.Streams[0].Blocks) != 2 ||
		got.Streams[2].Blocks[0] != 12 || !bytes.Equal(got.App, m.App) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}
