package durable_test

import (
	"testing"

	"pds/internal/crashharness"
	"pds/internal/durable"
	"pds/internal/flash"
	"pds/internal/logstore"
)

// The unified crash battery (DESIGN §11): every conforming engine is swept
// across its fault kinds through the same generic harness. The per-engine
// directed tests (sync durability points, mid-reorganize crashes,
// in-place-area faults) stay next to their engines; prefix consistency
// under power failure is proven here, once, for all of them.
func TestDurableCrashBattery(t *testing.T) {
	for _, k := range durable.Kinds() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			base, err := crashharness.Baseline(k)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			if want := k.Ops/k.SyncEvery + 1; k.Ops%k.SyncEvery == 0 && len(base) != want {
				t.Fatalf("baseline boundaries = %d, want %d", len(base), want)
			}
			stride := 1
			if testing.Short() {
				stride = 7
			}
			for _, op := range k.CrashOps {
				op := op
				t.Run(op.String(), func(t *testing.T) {
					st, err := crashharness.Sweep(k, op, 0xC0FFEE, stride, base)
					if err != nil {
						t.Fatal(err)
					}
					if st.Crashes == 0 {
						t.Fatalf("%v sweep never fired a crash (%d runs)", op, st.Runs)
					}
					t.Logf("%v: %d crash points, max recovery = %+v, max recovery I/O reads = %d",
						op, st.Crashes, st.MaxRecovery, st.MaxIO.PageReads)
				})
			}
		})
	}
}

// ByName is how pdsd's store role resolves its engine; pin the mapping.
func TestByName(t *testing.T) {
	for _, name := range []string{"kv", "search", "embdb"} {
		k, ok := durable.ByName(name)
		if !ok || k.Name != name {
			t.Fatalf("ByName(%q) = %+v, %v", name, k, ok)
		}
		if k.Open == nil || k.Reopen == nil || k.Ops <= 0 || k.SyncEvery <= 0 || len(k.CrashOps) == 0 {
			t.Fatalf("kind %q incomplete: %+v", name, k)
		}
	}
	if _, ok := durable.ByName("btree"); ok {
		t.Fatal("ByName accepted an unknown engine")
	}
}

// A fresh store of every kind round-trips through one sync + reopen with
// an identical fingerprint — the cheap smoke version of the battery that
// multi-process runs use as a liveness check.
func TestSyncReopenFingerprint(t *testing.T) {
	for _, k := range durable.Kinds() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			chip := flash.NewChip(flash.SmallGeometry())
			st, err := k.Open(flash.NewAllocator(chip))
			if err != nil {
				t.Fatal(err)
			}
			for op := 0; op < k.SyncEvery; op++ {
				if err := st.Apply(op); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
			if err := st.Sync(); err != nil {
				t.Fatal(err)
			}
			want, err := st.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			rec, err := logstore.Recover(chip.Reopen(), nil)
			if err != nil {
				t.Fatal(err)
			}
			st2, err := k.Reopen(rec)
			if err != nil {
				t.Fatal(err)
			}
			got, err := st2.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("fingerprint changed across reopen:\n  before %s\n  after  %s", want, got)
			}
		})
	}
}

// Evict-to-flash / reopen-on-demand: after Sync, Close releases only
// volatile state — logstore.Recover on the SAME live chip (no power
// cycle) plus Kind.Reopen must reconstruct an identical store, and the
// frozen footprint must survive Close unchanged. This is the exact churn
// cycle the multi-tenant host puts every idle tenant through.
func TestEvictReopenCycle(t *testing.T) {
	for _, k := range durable.Kinds() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			chip := flash.NewChip(flash.SmallGeometry())
			st, err := k.Open(flash.NewAllocator(chip))
			if err != nil {
				t.Fatal(err)
			}
			fps := make([]string, 0, 3)
			for cycle := 0; cycle < 3; cycle++ {
				for op := cycle * k.SyncEvery; op < (cycle+1)*k.SyncEvery; op++ {
					if err := st.Apply(op); err != nil {
						t.Fatalf("cycle %d op %d: %v", cycle, op, err)
					}
				}
				if err := st.Sync(); err != nil {
					t.Fatalf("cycle %d sync: %v", cycle, err)
				}
				fp, err := st.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				fps = append(fps, fp)

				// Evict: footprint must freeze across Close, and Close must
				// be idempotent.
				live := st.Pages()
				if live == 0 {
					t.Fatalf("cycle %d: synced store reports zero pages", cycle)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("cycle %d close: %v", cycle, err)
				}
				if err := st.Close(); err != nil {
					t.Fatalf("cycle %d second close: %v", cycle, err)
				}
				if got := st.Pages(); got != live {
					t.Fatalf("cycle %d: footprint %d live, %d after close", cycle, live, got)
				}

				// Reopen on demand from the live chip — no power cycle.
				rec, err := logstore.Recover(chip, nil)
				if err != nil {
					t.Fatalf("cycle %d recover: %v", cycle, err)
				}
				st, err = k.Reopen(rec)
				if err != nil {
					t.Fatalf("cycle %d reopen: %v", cycle, err)
				}
				got, err := st.Fingerprint()
				if err != nil {
					t.Fatal(err)
				}
				if got != fp {
					t.Fatalf("cycle %d: fingerprint changed across evict/reopen:\n  before %s\n  after  %s", cycle, fp, got)
				}
			}
			for i := 1; i < len(fps); i++ {
				if fps[i] == fps[i-1] {
					t.Fatalf("cycles %d and %d left identical fingerprints — workload not advancing", i-1, i)
				}
			}
		})
	}
}

// A Sync only commits: the reorganization its boundary owes waits for
// Reorganize, at the Kind's cadence (kv every third boundary, search every
// second, embdb never), counted by the store's driver. Reorganize pays
// the debt without moving the fingerprint, and writes nothing for a Kind
// that never owes one.
func TestSyncOwesReorganization(t *testing.T) {
	every := map[string]int{"kv": 3, "search": 2, "embdb": 0}
	for _, k := range durable.Kinds() {
		k := k
		t.Run(k.Name, func(t *testing.T) {
			n := every[k.Name]
			if k.ReorgEvery != n {
				t.Fatalf("ReorgEvery = %d, want %d", k.ReorgEvery, n)
			}
			for b := 1; b <= 4*max(n, 1); b++ {
				if want := n > 0 && b%n == 0; k.Owes(b) != want {
					t.Fatalf("Owes(%d) = %v, want %v", b, k.Owes(b), want)
				}
			}
			chip := flash.NewChip(flash.SmallGeometry())
			st, err := k.Open(flash.NewAllocator(chip))
			if err != nil {
				t.Fatal(err)
			}
			op := 0
			for b := 1; b <= 2*max(n, 1); b++ {
				for end := op + k.SyncEvery; op < end; op++ {
					if err := st.Apply(op); err != nil {
						t.Fatal(err)
					}
				}
				before := chip.Stats()
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
				// Flush and commit record only: writes, never a read of
				// what is already on flash.
				if io := chip.Stats().Sub(before); io.PageReads != 0 {
					t.Fatalf("sync %d read %d pages", b, io.PageReads)
				}
			}
			fp, err := st.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			before := chip.Stats()
			if err := st.Reorganize(); err != nil {
				t.Fatal(err)
			}
			if io := chip.Stats().Sub(before); (n > 0) != (io.PageWrites > 0) {
				t.Fatalf("reorganize wrote %d pages", io.PageWrites)
			}
			if got, err := st.Fingerprint(); err != nil || got != fp {
				t.Fatalf("reorganize moved the fingerprint: %s → %s (%v)", fp, got, err)
			}
		})
	}
}
