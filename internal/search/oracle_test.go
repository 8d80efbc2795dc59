package search

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The decoders Reorganize and the cursors used before they read triples
// where they lie in a page image: every triple materialised with a string
// term. Kept as the reference the byte-level walkers are fuzzed against.

func decodeBucketPage(img []byte) (int32, []triple, error) {
	if len(img) < bucketPageHeader {
		return -1, nil, fmt.Errorf("search: short bucket page (%d bytes)", len(img))
	}
	prev := int32(binary.LittleEndian.Uint32(img[0:4]))
	cnt := int(binary.LittleEndian.Uint16(img[4:6]))
	out := make([]triple, 0, cnt)
	off := bucketPageHeader
	for i := 0; i < cnt; i++ {
		if off >= len(img) {
			return -1, nil, errors.New("search: corrupt bucket page")
		}
		tl := int(img[off])
		off++
		if off+tl+6 > len(img) {
			return -1, nil, errors.New("search: corrupt bucket page")
		}
		term := string(img[off : off+tl])
		off += tl
		doc := DocID(binary.LittleEndian.Uint32(img[off : off+4]))
		w := binary.LittleEndian.Uint16(img[off+4 : off+6])
		off += 6
		out = append(out, triple{term: term, doc: doc, weight: w})
	}
	return prev, out, nil
}

func encodeTripleRec(tr triple) []byte {
	out := make([]byte, 0, tripleSize(tr.term))
	return appendTriple(out, tr)
}

func decodeTripleRec(rec []byte) (triple, error) {
	if len(rec) < 1 {
		return triple{}, fmt.Errorf("search: empty triple record")
	}
	tl := int(rec[0])
	if len(rec) != 1+tl+6 {
		return triple{}, fmt.Errorf("search: corrupt triple record")
	}
	return triple{
		term:   string(rec[1 : 1+tl]),
		doc:    DocID(binary.LittleEndian.Uint32(rec[1+tl : 5+tl])),
		weight: binary.LittleEndian.Uint16(rec[5+tl : 7+tl]),
	}, nil
}

// tripleLessOracle is Reorganize's comparator as it stood: decode both
// records, corrupt ⇒ false, term ascending then docid descending.
func tripleLessOracle(a, b []byte) bool {
	ta, errA := decodeTripleRec(a)
	tb, errB := decodeTripleRec(b)
	if errA != nil || errB != nil {
		return false
	}
	if ta.term != tb.term {
		return ta.term < tb.term
	}
	return ta.doc > tb.doc
}
