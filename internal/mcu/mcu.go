// Package mcu models the secure microcontroller that hosts a Personal Data
// Server: a tamper-resistant chip with a few tens of KB of RAM connected to
// a large NAND flash array.
//
// The tutorial's central hardware argument is that the tiny RAM (<128 KB)
// forces pipelined query evaluation and index-heavy designs. This package
// makes that constraint enforceable in software: all query operators obtain
// their working memory through an Arena, and an allocation that exceeds the
// device budget fails with ErrOutOfRAM instead of silently spilling.
package mcu

import (
	"errors"
	"fmt"
	"sync"

	"pds/internal/flash"
)

// ErrOutOfRAM is returned when a reservation would exceed the RAM budget.
var ErrOutOfRAM = errors.New("mcu: RAM budget exceeded")

// Arena is a RAM accountant for a secure MCU. It does not own memory; it
// meters it. It is safe for concurrent use.
type Arena struct {
	mu     sync.Mutex
	budget int
	used   int
	high   int
}

// NewArena creates an arena with the given budget in bytes. A budget of 0
// or less means unlimited (useful for baselines that model a server-class
// machine).
func NewArena(budget int) *Arena {
	return &Arena{budget: budget}
}

// Reservation is a live claim on arena memory, held by value in its
// owner. Release it when the operator that needed it finishes; a released
// Reservation is the zero Reservation, which holds nothing.
type Reservation struct {
	arena *Arena
	n     int
}

// Reserve claims n bytes of working memory.
func (a *Arena) Reserve(n int) (Reservation, error) {
	if n < 0 {
		return Reservation{}, fmt.Errorf("mcu: negative reservation %d", n)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.claim(n) {
		return Reservation{}, fmt.Errorf("%w: want %d, used %d of %d", ErrOutOfRAM, n, a.used, a.budget)
	}
	return Reservation{arena: a, n: n}, nil
}

// TryReserve is Reserve for a caller that meets a full arena by freeing
// memory and trying again: where Reserve fails with ErrOutOfRAM it
// reports false, and it describes no refusal, so probing a full arena
// costs nothing. n must not be negative.
func (a *Arena) TryReserve(n int) (Reservation, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if n < 0 || !a.claim(n) {
		return Reservation{}, false
	}
	return Reservation{arena: a, n: n}, true
}

// claim books n more bytes if the budget has room. Callers hold a.mu.
func (a *Arena) claim(n int) bool {
	if a.budget > 0 && a.used+n > a.budget {
		return false
	}
	a.used += n
	if a.used > a.high {
		a.high = a.used
	}
	return true
}

// Grow enlarges an existing reservation by delta bytes (delta may not be
// negative; shrink by releasing and re-reserving).
func (r *Reservation) Grow(delta int) error {
	if r.arena == nil {
		return errors.New("mcu: grow of released reservation")
	}
	if delta < 0 {
		return fmt.Errorf("mcu: negative grow %d", delta)
	}
	a := r.arena
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.budget > 0 && a.used+delta > a.budget {
		return fmt.Errorf("%w: grow %d, used %d of %d", ErrOutOfRAM, delta, a.used, a.budget)
	}
	a.used += delta
	if a.used > a.high {
		a.high = a.used
	}
	r.n += delta
	return nil
}

// Size returns the reservation's current size in bytes.
func (r *Reservation) Size() int { return r.n }

// Release returns the memory to the arena and zeroes r. Releasing twice
// is a no-op.
func (r *Reservation) Release() {
	a := r.arena
	if a == nil {
		return
	}
	a.mu.Lock()
	a.used -= r.n
	a.mu.Unlock()
	*r = Reservation{}
}

// Budget returns the configured budget (0 = unlimited).
func (a *Arena) Budget() int { return a.budget }

// Used returns currently reserved bytes.
func (a *Arena) Used() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// HighWater returns the maximum bytes ever reserved simultaneously.
func (a *Arena) HighWater() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.high
}

// ResetHighWater sets the high-water mark back to the current usage.
func (a *Arena) ResetHighWater() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.high = a.used
}

// TamperState describes the Part III threat-model status of a token.
type TamperState int

const (
	// Unbreakable models an honest token whose secrets cannot be
	// extracted (the tutorial's default trust assumption).
	Unbreakable TamperState = iota
	// Broken models a token compromised by a weakly-malicious adversary:
	// its keys leaked but it still wants to avoid detection.
	Broken
)

func (t TamperState) String() string {
	switch t {
	case Unbreakable:
		return "unbreakable"
	case Broken:
		return "broken"
	default:
		return fmt.Sprintf("TamperState(%d)", int(t))
	}
}

// Profile describes a class of secure device from the tutorial's "target
// hardware" slide.
type Profile struct {
	Name     string
	RAM      int // bytes of MCU RAM available to data management
	Geometry flash.Geometry
	Cost     flash.CostModel
}

// Smartcard is a contact smartcard-class token: 64 KB RAM, 1 GB flash.
func Smartcard() Profile {
	return Profile{
		Name: "smartcard",
		RAM:  64 << 10,
		Geometry: flash.Geometry{
			PageSize: 2048, PagesPerBlock: 64, Blocks: 8192, // 1 GiB
		},
		Cost: flash.DefaultCostModel(),
	}
}

// SecureMicroSD is a secure MicroSD-class token: 128 KB RAM, 4 GB flash.
func SecureMicroSD() Profile {
	return Profile{
		Name: "secure-microsd",
		RAM:  128 << 10,
		Geometry: flash.Geometry{
			PageSize: 4096, PagesPerBlock: 128, Blocks: 8192, // 4 GiB
		},
		Cost: flash.DefaultCostModel(),
	}
}

// SensorNode is a flash-equipped sensor: 8 KB RAM, 64 MB flash.
func SensorNode() Profile {
	return Profile{
		Name: "sensor",
		RAM:  8 << 10,
		Geometry: flash.Geometry{
			PageSize: 512, PagesPerBlock: 32, Blocks: 4096, // 64 MiB
		},
		Cost: flash.DefaultCostModel(),
	}
}

// TestProfileLarge is a roomy device for integration tests: generous RAM
// and a 32 MiB flash array with small pages, so structures span many pages
// without long load times.
func TestProfileLarge() Profile {
	return Profile{
		Name: "test-large",
		RAM:  256 << 10,
		Geometry: flash.Geometry{
			PageSize: 512, PagesPerBlock: 16, Blocks: 4096, // 32 MiB
		},
		Cost: flash.DefaultCostModel(),
	}
}

// Device bundles the hardware resources of one secure token.
type Device struct {
	Profile Profile
	Chip    *flash.Chip
	Alloc   *flash.Allocator
	RAM     *Arena
	Tamper  TamperState
}

// NewDevice instantiates the simulated hardware for a profile.
func NewDevice(p Profile) *Device {
	chip := flash.NewChip(p.Geometry)
	return &Device{
		Profile: p,
		Chip:    chip,
		Alloc:   flash.NewAllocator(chip),
		RAM:     NewArena(p.RAM),
		Tamper:  Unbreakable,
	}
}
