package logstore

import (
	"bytes"
	"errors"
	"testing"
)

// decodePage is the page decoder as it stood before reads became views:
// check the image, then materialize every record slice. The differential
// fuzz target holds PageView to it.
func decodePage(page []byte) ([][]byte, error) {
	cnt, err := checkPage(page)
	if err != nil || cnt == 0 {
		return nil, err
	}
	recs := make([][]byte, cnt)
	off := pageHeader
	for i := range recs {
		recs[i], off = slotAt(page, off)
	}
	return recs, nil
}

// FuzzDecodePage checks that arbitrary page images never panic the record
// decoder — corrupt flash must surface as an error, not a crash.
func FuzzDecodePage(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 'a', 'b', 'c'})
	f.Add([]byte{255, 255, 0, 0})
	f.Fuzz(func(t *testing.T, img []byte) {
		recs, err := decodePage(img)
		if err == nil {
			for _, r := range recs {
				_ = len(r)
			}
		}
	})
}

// FuzzPageViewMatchesDecodePage holds the in-place view to the decoder it
// replaced: the same images are accepted and rejected (as ErrCorruptPage),
// and an accepted image yields the same records in the same order.
func FuzzPageViewMatchesDecodePage(f *testing.F) {
	sealed := func(recs ...string) []byte {
		img := make([]byte, pageHeader)
		for _, r := range recs {
			img = append(img, byte(len(r)), 0)
			img = append(img, r...)
		}
		sealPage(img, len(recs))
		return img
	}
	f.Add([]byte{})
	f.Add([]byte{1, 0, 3, 0, 'a', 'b', 'c'})
	f.Add(sealed())
	f.Add(sealed("a", "", "record three"))
	f.Add(append(sealed("x", "y"), 0, 0, 0))
	torn := sealed("torn", "page")
	f.Add(torn[:len(torn)-2])
	f.Fuzz(func(t *testing.T, img []byte) {
		want, wantErr := decodePage(img)
		v, err := viewPage(img)
		if (err == nil) != (wantErr == nil) || errors.Is(err, ErrCorruptPage) != errors.Is(wantErr, ErrCorruptPage) {
			t.Fatalf("view err = %v, decodePage err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if v.Len() != len(want) {
			t.Fatalf("view holds %d records, decodePage %d", v.Len(), len(want))
		}
		for i, w := range want {
			rec, ok := v.Next()
			if !ok || !bytes.Equal(rec, w) {
				t.Fatalf("record %d = %q, %v; want %q", i, rec, ok, w)
			}
		}
		if rec, ok := v.Next(); ok {
			t.Fatalf("view yields %q past its %d records", rec, len(want))
		}
	})
}
