package bloom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

func FuzzUnmarshal(f *testing.F) {
	good, _ := NewForCapacity(10, 0.01).MarshalBinary()
	f.Add(good)
	f.Add([]byte{8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var fl Filter
		if err := fl.UnmarshalBinary(data); err == nil {
			// An accepted filter must answer queries without panicking.
			fl.Test([]byte("probe"))
			re, err2 := fl.MarshalBinary()
			if err2 != nil || string(re) != string(data) {
				t.Fatalf("round trip not canonical")
			}
		}
	})
}

// unmarshalOracle is UnmarshalBinary as it stood before it became a view
// plus a copy; the differential target holds ViewOf to it.
func unmarshalOracle(f *Filter, data []byte) error {
	if len(data) < 12 {
		return fmt.Errorf("%w: %d bytes", ErrCorrupt, len(data))
	}
	m := binary.LittleEndian.Uint32(data[0:4])
	k := binary.LittleEndian.Uint32(data[4:8])
	n := binary.LittleEndian.Uint32(data[8:12])
	if m == 0 || m > maxBits || k == 0 || k > 64 {
		return fmt.Errorf("%w: m=%d k=%d", ErrCorrupt, m, k)
	}
	want := int((uint64(m) + 7) / 8)
	if len(data) != 12+want {
		return fmt.Errorf("%w: m=%d k=%d len=%d", ErrCorrupt, m, k, len(data))
	}
	f.m, f.k, f.n = m, k, int(n)
	f.bits = make([]byte, want)
	copy(f.bits, data[12:])
	return nil
}

// FuzzBloomViewMatchesUnmarshal holds the in-place view to the decoder it
// replaced: the same encodings are accepted and rejected, an accepted one
// answers every probe alike, and UnmarshalBinary (now view + copy) yields
// the filter the old decoder did.
func FuzzBloomViewMatchesUnmarshal(f *testing.F) {
	fl := NewPageSummary(20)
	for i := 0; i < 20; i++ {
		fl.AddString(fmt.Sprintf("key-%d", i))
	}
	good, _ := fl.MarshalBinary()
	f.Add(good, []byte("key-3"))
	f.Add(good[:len(good)-1], []byte("key-3"))
	f.Add(append(good[:len(good):len(good)], 0), []byte("absent"))
	f.Add([]byte{8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, []byte("m=0"))
	f.Fuzz(func(t *testing.T, data, probe []byte) {
		var want, got Filter
		wantErr := unmarshalOracle(&want, data)
		v, err := ViewOf(data)
		if (err == nil) != (wantErr == nil) || errors.Is(err, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) {
			t.Fatalf("ViewOf err = %v, old UnmarshalBinary err = %v", err, wantErr)
		}
		if uerr := got.UnmarshalBinary(data); (uerr == nil) != (wantErr == nil) {
			t.Fatalf("UnmarshalBinary err = %v, old err = %v", uerr, wantErr)
		}
		if err != nil {
			return
		}
		if got.m != want.m || got.k != want.k || got.n != want.n || !bytes.Equal(got.bits, want.bits) {
			t.Fatalf("UnmarshalBinary = %+v, old = %+v", got, want)
		}
		for _, key := range [][]byte{probe, []byte("probe"), data} {
			if v.Test(key) != want.Test(key) {
				t.Fatalf("view.Test(%q) = %v, filter says %v", key, v.Test(key), want.Test(key))
			}
		}
		// The view reads data where it lies; the filter owns a copy.
		data[len(data)-1] ^= 0xFF
		if !bytes.Equal(got.bits, want.bits) {
			t.Fatal("UnmarshalBinary aliases its input")
		}
	})
}
