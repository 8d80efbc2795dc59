package bloom

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"
)

// FuzzUnmarshal decodes arbitrary bytes through ViewOf: an accepted
// encoding answers probes without panicking and has the canonical length,
// so re-encoding its filter reproduces it byte for byte.
func FuzzUnmarshal(f *testing.F) {
	fl := NewPageSummaryBits(10, 10)
	good, _ := fl.MarshalBinary()
	f.Add(good)
	f.Add([]byte{8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := ViewOf(data)
		if err != nil {
			return
		}
		v.Test([]byte("probe"))
		re, err := (&Filter{bits: v.bits, m: v.m, k: v.k, n: int(v.n)}).MarshalBinary()
		if err != nil || !bytes.Equal(re, data) {
			t.Fatalf("round trip not canonical")
		}
	})
}

// unmarshalOracle is the copying decoder ViewOf replaced; the
// differential target holds ViewOf to it.
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
// replaced: the same encodings are accepted and rejected, and an accepted
// one has the old decoder's metadata and answers every probe alike.
func FuzzBloomViewMatchesUnmarshal(f *testing.F) {
	fl := NewPageSummary(20)
	addAll(fl, "key-%d", 20)
	good, _ := fl.MarshalBinary()
	f.Add(good, []byte("key-3"))
	f.Add(good[:len(good)-1], []byte("key-3"))
	f.Add(append(good[:len(good):len(good)], 0), []byte("absent"))
	f.Add([]byte{8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, []byte("m=0"))
	f.Fuzz(func(t *testing.T, data, probe []byte) {
		var want Filter
		wantErr := unmarshalOracle(&want, data)
		v, err := ViewOf(data)
		if (err == nil) != (wantErr == nil) || errors.Is(err, ErrCorrupt) != errors.Is(wantErr, ErrCorrupt) {
			t.Fatalf("ViewOf err = %v, old decoder err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if v.m != want.m || v.k != want.k || int(v.n) != want.n || !bytes.Equal(v.bits, want.bits) {
			t.Fatalf("view = %+v, old decoder = %+v", v, want)
		}
		for _, key := range [][]byte{probe, []byte("probe"), data} {
			if v.Test(key) != has(&want, string(key)) {
				t.Fatalf("view.Test(%q) = %v, filter says %v", key, v.Test(key), has(&want, string(key)))
			}
		}
	})
}
