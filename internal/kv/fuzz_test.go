package kv

import (
	"testing"

	"pds/internal/logstore"
)

func FuzzDecodeBinding(f *testing.F) {
	f.Add(appendBinding(nil, binding{key: []byte("k"), ref: logstore.RecordID{Page: 1, Slot: 2}, flags: 1}))
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, rec []byte) {
		b, err := decodeBinding(rec)
		if err == nil {
			cp := b
			cp.key = append([]byte(nil), b.key...)
			re := appendBinding(nil, cp)
			if string(re) != string(rec) {
				t.Fatalf("round trip not canonical")
			}
		}
	})
}
