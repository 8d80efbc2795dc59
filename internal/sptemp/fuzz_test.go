package sptemp

import "testing"

func FuzzDecodeFix(f *testing.F) {
	f.Add(encodeFix(Fix{T: -5, X: 9, Y: -3}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, rec []byte) {
		p, err := decodeFix(rec)
		if err == nil {
			got, err2 := decodeFix(encodeFix(p))
			if err2 != nil || got != p {
				t.Fatalf("round trip")
			}
		}
	})
}

func FuzzDecodeSegSummary(f *testing.F) {
	f.Add(encodeSegSummary(nil, segSummary{minT: 1, maxT: 2, bbox: Region{MinX: -1, MinY: -2, MaxX: 3, MaxY: 4}, count: 5}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, rec []byte) {
		s, err := decodeSegSummary(rec)
		if err == nil {
			got, err2 := decodeSegSummary(encodeSegSummary(nil, s))
			if err2 != nil || got != s {
				t.Fatalf("round trip")
			}
		}
	})
}
