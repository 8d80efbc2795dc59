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

// Through Do: a request's service is its own I/O plus any wait for an
// in-flight erase, never the erases of the idle window before it, and the
// chip goes idle at the end of the service.
func TestDoPricesIdleErasesOutside(t *testing.T) {
	h := NewHost(HostConfig{}, obs.NewRegistry())
	req := Request{Tenant: "t", Class: ClassKV, Role: "owner", Purpose: "serve"}
	retired := 0
	for i := 0; i < 40; i++ {
		req.AtNS = int64(i+1) * 50_000_000 // long idle windows: every owed erase retires
		var before flash.Stats
		owed := 0
		e := h.tenants["t"]
		if e != nil {
			before, owed = e.chip.Stats(), e.alloc.Dirty()
		}
		resp, err := h.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		e = h.tenants["t"]
		io := e.chip.Stats().Sub(before)
		io.BlockErases -= int64(owed)
		if want := io.Cost(h.model).Nanoseconds() + baseCPUNS; resp.ServiceNS != want {
			t.Fatalf("request %d: service %d ns, its own I/O %v costs %d", i, resp.ServiceNS, io, want)
		}
		if e.idleAt != resp.EndNS {
			t.Fatalf("request %d: chip idle at %d, service ended at %d", i, e.idleAt, resp.EndNS)
		}
		retired += owed
	}
	if retired == 0 {
		t.Fatal("no request found an erase owed: the workload never freed a block")
	}
}

// An evicted tenant's chip goes idle at its eviction, and its allocator
// goes with its store: the reopen rebuilds it, owed erases included.
func TestEvictionStartsIdleWindow(t *testing.T) {
	h := NewHost(HostConfig{ArenaBytes: residentBytes}, obs.NewRegistry())
	do := func(name string, at int64) {
		t.Helper()
		if _, err := h.Do(Request{Tenant: name, Class: ClassKV, AtNS: at, Role: "owner", Purpose: "serve"}); err != nil {
			t.Fatal(err)
		}
	}
	// Run tenant a until a request leaves it owing erases.
	do("a", 10_000_000)
	a := h.tenants["a"]
	for i := int64(2); a.alloc.Dirty() == 0; i++ {
		if i > 60 {
			t.Fatal("tenant a never owed an erase: the workload never freed a block")
		}
		do("a", i*10_000_000)
	}
	do("b", 1_000_000_000)
	if a.st != nil || a.alloc != nil || a.idleAt != 1_000_000_000 {
		t.Fatalf("evicted tenant: store %v, allocator %v, idle at %d; want none, none, 1000000000", a.st, a.alloc, a.idleAt)
	}
	do("a", 2_000_000_000)
	if a.alloc == nil || a.alloc.Dirty() != 0 {
		t.Fatalf("reopened tenant owes %d erases after a second of idle time", a.alloc.Dirty())
	}
}
