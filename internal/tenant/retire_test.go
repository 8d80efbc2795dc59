package tenant

import (
	"testing"

	"pds/internal/flash"
	"pds/internal/obs"
)

// dirtyEnvelope is a tenant whose allocator owes n erases.
func dirtyEnvelope(t *testing.T, n int, idleAt int64) *envelope {
	t.Helper()
	chip := flash.NewChip(tenantGeometry())
	alloc := flash.NewAllocator(chip)
	blocks := make([]int, n)
	for i := range blocks {
		b, err := alloc.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := chip.WritePage(b*chip.Geometry().PagesPerBlock, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		blocks[i] = b
	}
	for _, b := range blocks {
		if err := alloc.Free(b); err != nil {
			t.Fatal(err)
		}
	}
	return &envelope{name: "t", chip: chip, alloc: alloc, idleAt: idleAt}
}

// The idle window [idleAt, start) holds one erase per EraseBlock latency,
// counting the one still running at start, whose remainder the request
// waits out; a chip still busy at start erases nothing.
func TestRetireIdleWindow(t *testing.T) {
	const erase = 1_500_000
	for _, c := range []struct {
		name        string
		dirty       int
		idle, start int64
		erased      int
		wait        int64
	}{
		{"two erases fit", 5, 1_000_000, 1_000_000 + 2*erase, 2, 0},
		{"third erase in flight", 5, 1_000_000, 1_000_000 + 2*erase + 500_000, 3, erase - 500_000},
		{"window outlasts the debt", 2, 0, 10 * erase, 2, 0},
		{"nothing owed", 0, 0, 10 * erase, 0, 0},
		{"chip busy until start", 5, 5_000_000, 5_000_000, 0, 0},
		{"chip busy past start", 5, 5_000_000, 4_000_000, 0, 0},
	} {
		h := NewHost(HostConfig{}, obs.NewRegistry())
		e := dirtyEnvelope(t, c.dirty, c.idle)
		wait, err := h.retire(e, c.start)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := e.chip.Stats().BlockErases; got != int64(c.erased) || wait != c.wait {
			t.Errorf("%s: %d erases, wait %d ns; want %d and %d", c.name, got, wait, c.erased, c.wait)
		}
		if got := e.alloc.Dirty(); got != c.dirty-c.erased {
			t.Errorf("%s: %d blocks still dirty, want %d", c.name, got, c.dirty-c.erased)
		}
	}
}

// owingTenant is a host with one tenant of class c, driven with
// requests 50 ms apart until a sync boundary leaves it a reorganization
// owed; at is the last request's arrival.
func owingTenant(t *testing.T, c Class) (h *Host, e *envelope, at int64) {
	t.Helper()
	h = NewHost(HostConfig{}, obs.NewRegistry())
	for i := 1; e == nil || !e.owed; i++ {
		if i > 60 {
			t.Fatalf("%v tenant never owed a reorganization", c)
		}
		at = int64(i) * 50_000_000
		if _, err := h.Do(Request{Tenant: "t", Class: c, AtNS: at, Role: "owner", Purpose: "serve"}); err != nil {
			t.Fatal(err)
		}
		e = h.tenants["t"]
	}
	return h, e, at
}

// The idle window runs an owed reorganization from idleAt on, then
// retire's erases, which include the blocks it freed. A window longer than
// the reorganization costs the request nothing; a shorter one makes it
// wait out the remainder and leaves no time for an erase; a chip still
// busy at start runs nothing and keeps the debt; a store the request has
// just reopened keeps its debt for the next window.
func TestBackgroundIdleWindow(t *testing.T) {
	const erase = 1_500_000
	for _, c := range []Class{ClassKV, ClassSearch} {
		// The reorganization's own I/O, measured on a twin in the same state.
		_, twin, _ := owingTenant(t, c)
		before := twin.chip.Stats()
		if err := twin.st.Reorganize(); err != nil {
			t.Fatal(err)
		}
		reorg := twin.chip.Stats().Sub(before)
		cost := reorg.Cost(flash.DefaultCostModel()).Nanoseconds()
		freed := twin.alloc.Dirty()
		if cost == 0 || freed == 0 {
			t.Fatalf("%v: reorganization cost %d ns and freed %d blocks", c, cost, freed)
		}
		for _, k := range []struct {
			name     string
			start    int64 // from idleAt
			reopened bool
			wait     int64
			owed     bool
			io       flash.Stats // chip I/O of the window
			idle     int64       // idleAt after, from idleAt
		}{
			{"window outlasts the reorganization", cost + int64(freed)*erase, false, 0, false,
				reorg.Add(flash.Stats{BlockErases: int64(freed)}), cost},
			{"window shorter than the reorganization", cost / 2, false, cost - cost/2, false,
				reorg, cost},
			{"chip busy until start", 0, false, 0, true, flash.Stats{}, 0},
			{"chip busy past start", -1, false, 0, true, flash.Stats{}, 0},
			{"store just reopened", cost, true, 0, true, flash.Stats{}, 0},
		} {
			h, e, _ := owingTenant(t, c)
			idleAt, before := e.idleAt, e.chip.Stats()
			wait, err := h.background(e, idleAt+k.start, k.reopened)
			if err != nil {
				t.Fatalf("%v %s: %v", c, k.name, err)
			}
			if io := e.chip.Stats().Sub(before); wait != k.wait || e.owed != k.owed || io != k.io || e.idleAt != idleAt+k.idle {
				t.Errorf("%v %s: wait %d, owed %v, I/O %+v, idle at +%d; want %d, %v, %+v, +%d",
					c, k.name, wait, e.owed, io, e.idleAt-idleAt, k.wait, k.owed, k.io, k.idle)
			}
		}
	}
}

// Through Do: a request's service is its own I/O, never the
// reorganization or the erases of the idle window before it, and the chip
// goes idle at the end of the service. A twin store on its own chip pays
// the same background work unmetered before each op and meters the rest:
// the host's service and chip I/O must equal the twin's.
func TestDoPricesIdleErasesOutside(t *testing.T) {
	for _, c := range []Class{ClassKV, ClassSearch} {
		h := NewHost(HostConfig{}, obs.NewRegistry())
		kind, _ := c.Kind()
		chip := flash.NewChip(tenantGeometry())
		alloc := flash.NewAllocator(chip)
		twin, err := kind.Open(alloc)
		if err != nil {
			t.Fatal(err)
		}
		reorganized, retired, owed := 0, 0, false
		for i := 0; i < 60; i++ {
			if owed {
				if err := twin.Reorganize(); err != nil {
					t.Fatal(err)
				}
				reorganized++
				owed = false
			}
			n, err := alloc.EraseDirty(alloc.Dirty())
			if err != nil {
				t.Fatal(err)
			}
			retired += n
			before := chip.Stats()
			if err := twin.Apply(i); err != nil {
				t.Fatal(err)
			}
			if (i+1)%kind.SyncEvery == 0 {
				if err := twin.Sync(); err != nil {
					t.Fatal(err)
				}
				owed = kind.Owes((i + 1) / kind.SyncEvery)
			}
			own := chip.Stats().Sub(before)

			// Long idle windows: every owed reorganization and erase runs.
			resp, err := h.Do(Request{Tenant: "t", Class: c, AtNS: int64(i+1) * 50_000_000, Role: "owner", Purpose: "serve"})
			if err != nil {
				t.Fatal(err)
			}
			e := h.tenants["t"]
			if want := own.Cost(h.model).Nanoseconds() + baseCPUNS; resp.ServiceNS != want {
				t.Fatalf("%v request %d: service %d ns, its own I/O %+v costs %d", c, i, resp.ServiceNS, own, want)
			}
			if e.chip.Stats() != chip.Stats() {
				t.Fatalf("%v request %d: chip I/O %+v, the twin's %+v", c, i, e.chip.Stats(), chip.Stats())
			}
			if e.idleAt != resp.EndNS {
				t.Fatalf("%v request %d: chip idle at %d, service ended at %d", c, i, e.idleAt, resp.EndNS)
			}
		}
		if reorganized == 0 || retired == 0 {
			t.Fatalf("%v: %d reorganizations and %d erases owed: the workload never owed both", c, reorganized, retired)
		}
	}
}

// An evicted tenant's chip goes idle at its eviction, and its allocator
// goes with its store: the reopen rebuilds it, owed erases included. Its
// reorganization debt stays on the envelope and runs in the window after
// the reopen.
func TestEvictionStartsIdleWindow(t *testing.T) {
	h := NewHost(HostConfig{ArenaBytes: residentBytes}, obs.NewRegistry())
	do := func(name string, at int64) {
		t.Helper()
		if _, err := h.Do(Request{Tenant: name, Class: ClassKV, AtNS: at, Role: "owner", Purpose: "serve"}); err != nil {
			t.Fatal(err)
		}
	}
	// Run tenant a until it owes a reorganization, then arrive 1 ns after
	// its chip went idle: the reorganization runs, and no erase of the
	// blocks it freed fits the window.
	do("a", 10_000_000)
	a := h.tenants["a"]
	for i := int64(2); !a.owed; i++ {
		if i > 60 {
			t.Fatal("tenant a never owed a reorganization")
		}
		do("a", i*10_000_000)
	}
	do("a", a.idleAt+1)
	if a.owed || a.alloc.Dirty() == 0 {
		t.Fatalf("after a 1 ns window: owed %v, %d erases owed; want the reorganization run and its blocks dirty", a.owed, a.alloc.Dirty())
	}
	// Owe the next reorganization through zero-length windows, which run
	// no background work, so the freed blocks stay dirty; then evict.
	for i := 0; !a.owed; i++ {
		if i > 60 {
			t.Fatal("tenant a never owed a second reorganization")
		}
		do("a", a.idleAt)
	}
	if a.alloc.Dirty() == 0 {
		t.Fatal("tenant a owes no erase when it is evicted")
	}
	do("b", 1_000_000_000)
	if a.st != nil || a.alloc != nil || a.idleAt != 1_000_000_000 || !a.owed {
		t.Fatalf("evicted tenant: store %v, allocator %v, idle at %d, owed %v; want none, none, 1000000000, true", a.st, a.alloc, a.idleAt, a.owed)
	}
	do("a", 2_000_000_000)
	if a.alloc == nil || a.alloc.Dirty() != 0 || !a.owed {
		t.Fatalf("reopened tenant owes %d erases after a second of idle time, reorganization owed %v (want 0, true)", a.alloc.Dirty(), a.owed)
	}
	before := a.chip.Stats()
	do("a", 3_000_000_000)
	if io := a.chip.Stats().Sub(before); a.owed || a.alloc.Dirty() != 0 || io.PageWrites == 0 {
		t.Fatalf("window after the reopen: owed %v, %d erases owed, I/O %+v; want the reorganization run and retired", a.owed, a.alloc.Dirty(), io)
	}
}
