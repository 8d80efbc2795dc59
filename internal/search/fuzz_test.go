package search

import (
	"bytes"
	"testing"
)

// The byte-level walk of a bucket page accepts exactly the images the
// materialising decoder accepts, and yields the same triples.
func FuzzDecodeBucketPage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{255, 255, 255, 255, 1, 0, 1, 'a', 1, 0, 0, 0, 2, 0})
	f.Fuzz(func(t *testing.T, img []byte) {
		wantPrev, want, wantErr := decodeBucketPage(img)
		prev, body, err := bucketPage(img)
		if (err == nil) != (wantErr == nil) || prev != wantPrev {
			t.Fatalf("bucketPage = %d, %v; decoder = %d, %v", prev, err, wantPrev, wantErr)
		}
		for _, tr := range want {
			var rec []byte
			rec, body = nextTriple(body)
			if got := (triple{string(tripleTerm(rec)), tripleDoc(rec), tripleWeight(rec)}); got != tr {
				t.Fatalf("walk yields %+v, decoder %+v", got, tr)
			}
			if !bytes.Equal(rec, encodeTripleRec(tr)) {
				t.Fatalf("triple %+v lies on the page as %x", tr, rec)
			}
		}
		if len(body) != 0 {
			t.Fatalf("%d bytes of body past the last triple", len(body))
		}
	})
}

func FuzzDecodeTripleRec(f *testing.F) {
	f.Add(encodeTripleRec(triple{term: "t", doc: 1, weight: 2}))
	f.Add([]byte{5})
	f.Fuzz(func(t *testing.T, rec []byte) {
		tr, err := decodeTripleRec(rec)
		if (err == nil) != (checkTripleRec(rec) == nil) {
			t.Fatalf("checkTripleRec(%x) = %v, decoder says %v", rec, checkTripleRec(rec), err)
		}
		if err == nil {
			got, err2 := decodeTripleRec(encodeTripleRec(tr))
			if err2 != nil || got != tr {
				t.Fatalf("round trip: %+v vs %+v", got, tr)
			}
		}
	})
}

// The byte comparator agrees with the decoding one on every pair, corrupt
// records included.
func FuzzTripleLess(f *testing.F) {
	a := encodeTripleRec(triple{term: "flu", doc: 7, weight: 1})
	f.Add(a, encodeTripleRec(triple{term: "flu", doc: 9, weight: 3}))
	f.Add(a, encodeTripleRec(triple{term: "fl", doc: 7, weight: 1}))
	f.Add(a, encodeTripleRec(triple{term: "fluent", doc: 1, weight: 1}))
	f.Add(a, a)
	f.Add(a, a[:len(a)-1])
	f.Add([]byte{}, a)
	f.Add([]byte{0, 1, 0, 0, 0, 0, 0}, []byte{0, 2, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if got, want := tripleLess(a, b), tripleLessOracle(a, b); got != want {
			t.Fatalf("tripleLess(%x, %x) = %v, oracle %v", a, b, got, want)
		}
		if got, want := tripleLess(b, a), tripleLessOracle(b, a); got != want {
			t.Fatalf("tripleLess(%x, %x) = %v, oracle %v", b, a, got, want)
		}
	})
}
