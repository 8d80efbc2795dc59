package anon

import "testing"

func FuzzDecodeRecord(f *testing.F) {
	f.Add(encodeRecord(Record{QI: []string{"37", "75013"}, Sensitive: "flu"}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := decodeRecord(data)
		if err == nil {
			re := encodeRecord(rec)
			if string(re) != string(data) {
				t.Fatalf("round trip not canonical")
			}
		}
	})
}
