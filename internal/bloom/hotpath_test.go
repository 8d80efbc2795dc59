package bloom

import (
	"testing"

	"pds/internal/race"
)

// A summary scan validates and tests one marshaled filter per key page,
// where it lies: neither step may allocate. (The copying decoder it
// replaced paid one allocation per summary.)
func TestViewAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	f := NewPageSummary(100)
	addAll(f, "key-%03d", 100)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	present, absent := []byte("key-042"), []byte("no such key")
	allocs := testing.AllocsPerRun(100, func() {
		v, err := ViewOf(blob)
		if err != nil || !v.Test(present) {
			t.Fatalf("view: %v, key-042 present = %v", err, err == nil && v.Test(present))
		}
		v.Test(absent)
	})
	if allocs > 0 {
		t.Errorf("ViewOf + Test: %.0f allocs, want 0", allocs)
	}
}
