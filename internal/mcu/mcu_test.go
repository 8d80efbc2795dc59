package mcu

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"pds/internal/flash"
)

func TestArenaReserveRelease(t *testing.T) {
	a := NewArena(100)
	r, err := a.Reserve(60)
	if err != nil {
		t.Fatal(err)
	}
	if a.Used() != 60 {
		t.Errorf("Used = %d, want 60", a.Used())
	}
	if _, err := a.Reserve(50); !errors.Is(err, ErrOutOfRAM) {
		t.Errorf("over-budget reserve err = %v, want ErrOutOfRAM", err)
	}
	r.Release()
	if a.Used() != 0 {
		t.Errorf("Used after release = %d", a.Used())
	}
	if _, err := a.Reserve(100); err != nil {
		t.Errorf("full-budget reserve after release: %v", err)
	}
}

func TestArenaUnlimited(t *testing.T) {
	a := NewArena(0)
	if _, err := a.Reserve(1 << 30); err != nil {
		t.Errorf("unlimited arena rejected reservation: %v", err)
	}
}

func TestArenaNegativeReserve(t *testing.T) {
	a := NewArena(10)
	if _, err := a.Reserve(-1); err == nil {
		t.Error("negative reserve succeeded")
	}
}

func TestArenaHighWater(t *testing.T) {
	a := NewArena(100)
	r1, _ := a.Reserve(40)
	r2, _ := a.Reserve(50)
	r1.Release()
	r2.Release()
	if hw := a.HighWater(); hw != 90 {
		t.Errorf("HighWater = %d, want 90", hw)
	}
	a.ResetHighWater()
	if hw := a.HighWater(); hw != 0 {
		t.Errorf("HighWater after reset = %d, want 0", hw)
	}
}

func TestReservationGrow(t *testing.T) {
	a := NewArena(100)
	r, _ := a.Reserve(10)
	if err := r.Grow(20); err != nil {
		t.Fatal(err)
	}
	if r.Size() != 30 || a.Used() != 30 {
		t.Errorf("size=%d used=%d, want 30/30", r.Size(), a.Used())
	}
	if err := r.Grow(100); !errors.Is(err, ErrOutOfRAM) {
		t.Errorf("over-budget grow err = %v", err)
	}
	if err := r.Grow(-5); err == nil {
		t.Error("negative grow succeeded")
	}
	r.Release()
	if a.Used() != 0 {
		t.Errorf("Used after release = %d (grow not accounted)", a.Used())
	}
	if err := r.Grow(1); err == nil {
		t.Error("grow after release succeeded")
	}
}

// A reservation is a value: reserving and releasing one allocates
// nothing.
func TestReserveReleaseAllocatesNothing(t *testing.T) {
	a := NewArena(100)
	if allocs := testing.AllocsPerRun(50, func() {
		r, err := a.Reserve(40)
		if err != nil {
			t.Fatal(err)
		}
		r.Release()
	}); allocs != 0 {
		t.Errorf("Reserve/Release: %.1f allocs, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		r, _ := a.TryReserve(40)
		r.Release()
	}); allocs != 0 {
		t.Errorf("TryReserve/Release: %.1f allocs, want 0", allocs)
	}
	if a.Used() != 0 {
		t.Errorf("Used after the pairs = %d", a.Used())
	}
}

func TestDoubleReleaseNoop(t *testing.T) {
	a := NewArena(100)
	r, _ := a.Reserve(10)
	r.Release()
	r.Release()
	if a.Used() != 0 {
		t.Errorf("double release corrupted usage: %d", a.Used())
	}
}

func TestArenaConcurrent(t *testing.T) {
	a := NewArena(0)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r, err := a.Reserve(7)
				if err != nil {
					t.Error(err)
					return
				}
				r.Release()
			}
		}()
	}
	wg.Wait()
	if a.Used() != 0 {
		t.Errorf("Used after concurrent churn = %d", a.Used())
	}
}

// Property: usage never exceeds budget, and releases restore balance.
func TestQuickArenaInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewArena(1 << 16)
		var live []Reservation
		for _, s := range sizes {
			r, err := a.Reserve(int(s))
			if err != nil {
				if !errors.Is(err, ErrOutOfRAM) {
					return false
				}
				continue
			}
			live = append(live, r)
			if a.Used() > a.Budget() {
				return false
			}
		}
		for i := range live {
			live[i].Release()
		}
		return a.Used() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTamperStateString(t *testing.T) {
	if Unbreakable.String() != "unbreakable" || Broken.String() != "broken" {
		t.Error("TamperState strings wrong")
	}
	if TamperState(9).String() != "TamperState(9)" {
		t.Errorf("unknown state = %q", TamperState(9).String())
	}
}

// testProfile is a tiny device for unit tests.
func testProfile() Profile {
	return Profile{
		Name:     "test",
		RAM:      4 << 10,
		Geometry: flash.SmallGeometry(),
		Cost:     flash.DefaultCostModel(),
	}
}

func TestProfiles(t *testing.T) {
	for _, p := range []Profile{Smartcard(), SecureMicroSD(), SensorNode(), testProfile()} {
		if err := p.Geometry.Validate(); err != nil {
			t.Errorf("%s geometry: %v", p.Name, err)
		}
		if p.RAM <= 0 {
			t.Errorf("%s RAM = %d", p.Name, p.RAM)
		}
	}
	if Smartcard().Geometry.TotalBytes() != 1<<30 {
		t.Errorf("smartcard capacity = %d, want 1 GiB", Smartcard().Geometry.TotalBytes())
	}
	if SecureMicroSD().Geometry.TotalBytes() != 4<<30 {
		t.Errorf("microsd capacity = %d, want 4 GiB", SecureMicroSD().Geometry.TotalBytes())
	}
}

func TestNewDevice(t *testing.T) {
	d := NewDevice(testProfile())
	if d.Chip == nil || d.Alloc == nil || d.RAM == nil {
		t.Fatal("device missing components")
	}
	if d.Tamper != Unbreakable {
		t.Error("fresh device should be unbreakable")
	}
	if d.RAM.Budget() != testProfile().RAM {
		t.Errorf("RAM budget = %d", d.RAM.Budget())
	}
	if d.Alloc.Chip() != d.Chip {
		t.Error("allocator not bound to device chip")
	}
}

// TryReserve claims what Reserve claims and refuses where Reserve fails
// with ErrOutOfRAM, and probing a full arena with it allocates nothing.
func TestTryReserveMatchesReserve(t *testing.T) {
	a, b := NewArena(100), NewArena(100)
	for _, n := range []int{40, 40, 30, 20, 0, 1} {
		r, err := a.Reserve(n)
		tr, ok := b.TryReserve(n)
		if (err == nil) != ok || (err != nil && !errors.Is(err, ErrOutOfRAM)) {
			t.Fatalf("reserve %d: Reserve err %v, TryReserve ok %v", n, err, ok)
		}
		if ok && (r.Size() != tr.Size() || a.Used() != b.Used() || a.HighWater() != b.HighWater()) {
			t.Fatalf("reserve %d: arenas at %d and %d", n, a.Used(), b.Used())
		}
	}
	if _, ok := b.TryReserve(-1); ok {
		t.Error("TryReserve granted a negative reservation")
	}
	if allocs := testing.AllocsPerRun(50, func() { b.TryReserve(50) }); allocs != 0 {
		t.Errorf("probing a full arena: %.1f allocs, want 0", allocs)
	}
}
