package tseries

import "testing"

func FuzzDecodePoint(f *testing.F) {
	f.Add(encodePoint(Point{T: -5, V: 9}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, rec []byte) {
		p, err := decodePoint(rec)
		if err == nil {
			got, err2 := decodePoint(encodePoint(p))
			if err2 != nil || got != p {
				t.Fatalf("round trip")
			}
		}
	})
}

func FuzzDecodeSummary(f *testing.F) {
	f.Add(encodeSummary(nil, summary{minT: 1, maxT: 2, agg: Agg{Count: 1, Sum: 2, Min: 2, Max: 2}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		s, err := decodeSummary(rec)
		if err == nil {
			got, err2 := decodeSummary(encodeSummary(nil, s))
			if err2 != nil || got != s {
				t.Fatalf("round trip")
			}
		}
	})
}
