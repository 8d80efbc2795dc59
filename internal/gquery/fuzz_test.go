package gquery

import (
	"testing"

	"pds/internal/netsim"
)

func FuzzDecodePartial(f *testing.F) {
	f.Add(encodePartial(partialAgg{IDSum: 1, Count: 2, Aggs: map[string]*GroupAgg{"g": {Sum: 3, Count: 1, Min: 3, Max: 3}}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := decodePartial(data)
		if err == nil {
			// Round trip must be stable on accepted inputs.
			if _, err := decodePartial(encodePartial(p)); err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
		}
	})
}

func FuzzDecodeTuplePlain(f *testing.F) {
	f.Add(encodeTuplePlain(tuplePlain{ID: 9, Group: "g", Value: -1, Fake: true}))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := decodeTupleView(data)
		if err != nil {
			return
		}
		if len(v.Group) > 0 && &v.Group[0] != &data[10] {
			t.Fatalf("group is a copy, not a view of the plaintext")
		}
		tp := tuplePlain{ID: v.ID, Group: string(v.Group), Value: v.Value, Fake: v.Fake}
		got, err := decodeTupleView(encodeTuplePlain(tp))
		if err != nil || got.ID != tp.ID || string(got.Group) != tp.Group || got.Value != tp.Value || got.Fake != tp.Fake {
			t.Fatalf("round trip: %+v vs %+v (%v)", got, tp, err)
		}
	})
}

func FuzzSplitPayloads(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		splitNoisePayload(data)
		peekBucketID(data)
		splitPaillierPayload(data)
	})
}

// FuzzChunkFrame drives the token's walk over a dispatch frame with
// arbitrary bytes: it must never panic or read past the frame, a frame
// that walks cleanly must re-frame to the same bytes, and a frame that
// does not walk must count as a MAC failure.
func FuzzChunkFrame(f *testing.F) {
	kr, err := KeyringFrom(make([]byte, 32))
	if err != nil {
		f.Fatal(err)
	}
	var envs []netsim.Envelope
	for i, g := range []string{"flu", "", "asthma"} {
		rec, err := sealTuple(nil, kr, nil, tuplePlain{ID: uint64(i), Group: g, Value: int64(i)})
		if err != nil {
			f.Fatal(err)
		}
		envs = append(envs, netsim.Envelope{Payload: rec[recordPrefix:]})
	}
	valid := recordFrame(envs, envPayload)
	f.Add(append([]byte(nil), *valid...))
	chunkFrames.Put(valid)
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	fold := tupleFold(kr, wholeBody, "")
	f.Fuzz(func(t *testing.T, data []byte) {
		out := chunkOutcome{partial: partialAgg{Aggs: map[string]*GroupAgg{}}}
		foldFrame(&out, fold, data)
		var recs []netsim.Envelope
		walkErr := eachRecord(data, func(rec []byte) bool {
			recs = append(recs, netsim.Envelope{Payload: rec})
			return true
		})
		if walkErr != nil {
			if out.macFailures == 0 {
				t.Fatalf("unwalkable frame folded without a MAC failure")
			}
			return
		}
		again := recordFrame(recs, envPayload)
		defer chunkFrames.Put(again)
		if string(*again) != string(data) {
			t.Fatalf("re-framed %d records to %d bytes, want the %d input bytes", len(recs), len(*again), len(data))
		}
	})
}
