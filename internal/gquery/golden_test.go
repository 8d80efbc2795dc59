package gquery

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"pds/internal/netsim"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// recWire is the simulator with a wire tap: every Send and Deliver is
// recorded as (op, from, to, kind, payload length) — everything a
// protocol puts on the wire except the ciphertext bytes, which carry
// fresh IVs and differ run to run.
type recWire struct {
	*netsim.Network
	mu     sync.Mutex
	frames []string
}

func (w *recWire) record(op string, e netsim.Envelope) {
	w.mu.Lock()
	w.frames = append(w.frames, fmt.Sprintf("%s %s>%s %s %d", op, e.From, e.To, e.Kind, len(e.Payload)))
	w.mu.Unlock()
}

func (w *recWire) Send(e netsim.Envelope) netsim.Envelope {
	w.record("send", e)
	return w.Network.Send(e)
}

func (w *recWire) Deliver(e netsim.Envelope, rcv func(netsim.Envelope)) {
	w.record("deliver", e)
	w.Network.Deliver(e, rcv)
}

// transcriptDigest hashes a run's wire transcript, its RunStats (critical
// path included) and its result fingerprint. ordered keeps the frame
// order; otherwise the frames are hashed as a sorted multiset.
func transcriptDigest(frames []string, ordered bool, stats RunStats, fp string) string {
	if !ordered {
		frames = append([]string(nil), frames...)
		sort.Strings(frames)
	}
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%+v\n%s\n", strings.Join(frames, "\n"), stats, fp)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestProtocolTranscriptGolden pins what every Part III protocol puts on
// the wire, what it reports and what it answers, over both fold
// topologies and both SSI shapes. Flat batch cells are pinned frame by
// frame; tree cells as multisets (the fan-in tree may fold a level
// eagerly), and stream cells too (the stream's frame order depends on
// goroutine scheduling).
func TestProtocolTranscriptGolden(t *testing.T) {
	want := map[string]string{
		"secure-agg/flat/ssi1":    "474139d9a1c87ffe",
		"secure-agg/flat/ssi3":    "3c67461c435b75f6",
		"secure-agg/tree(4)/ssi1": "e50baa8511346c43",
		"secure-agg/tree(4)/ssi3": "bd636b825c8ad8d9",
		"noise/flat/ssi1":         "dfacb2dda94b42b4",
		"noise/flat/ssi3":         "7c60e551745ac2d0",
		"noise/tree(4)/ssi1":      "72bd7ff406dd95a7",
		"noise/tree(4)/ssi3":      "625758d9ab04ee19",
		"histogram/flat/ssi1":     "c9e0a32ee818bffa",
		"histogram/flat/ssi3":     "d34808d9618231b1",
		"histogram/tree(4)/ssi1":  "66834a8116b41e58",
		"histogram/tree(4)/ssi3":  "70cd55195701f562",
		"paillier/flat/ssi1":      "01d356a0bb06e64b",
		"paillier/flat/ssi3":      "e9f4b9884575708c",
		"stream/flat/ssi1":        "dac773f75cff18e9",
		"stream/flat/ssi3":        "cf512b5ee290c3b8",
		"stream/tree(4)/ssi1":     "e0719d2ea8b64dc1",
		"stream/tree(4)/ssi3":     "51f1b90c8a45f947",
	}
	parts := makeParts(37, 3, testDomain, 17)
	kr := mustKeyring(t)
	sk := testPaillierKey(t)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	type cell struct {
		name string
		run  func(w tnet.Transport, srv StreamInfra, eng *Engine) (string, RunStats, error)
	}
	protos := []cell{
		{"secure-agg", func(w tnet.Transport, srv StreamInfra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.SecureAgg(w, srv, parts, kr, 5)
			return fpResult(res), stats, err
		}},
		{"noise", func(w tnet.Transport, srv StreamInfra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.Noise(w, srv, parts, kr, testDomain, 1, ControlledNoise, 23)
			return fpResult(res), stats, err
		}},
		{"histogram", func(w tnet.Transport, srv StreamInfra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.Histogram(w, srv, parts, kr, buckets)
			return fpBuckets(res), stats, err
		}},
		{"paillier", func(w tnet.Transport, srv StreamInfra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.PaillierAgg(w, srv, parts, kr, sk.Public(), sk)
			return fpResult(res), stats, err
		}},
		{"stream", func(w tnet.Transport, srv StreamInfra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.SecureAggStream(w, srv, SliceSource(parts), kr, 5)
			return fpResult(res), stats, err
		}},
	}
	got := map[string]string{}
	for _, p := range protos {
		for _, topo := range []Topology{Flat(), Tree(4)} {
			if p.name == "paillier" && topo.IsTree() {
				continue // the SSI folds Paillier ciphertexts itself: no fold plane
			}
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/ssi%d", p.name, topo, shards)
				w := &recWire{Network: netsim.New()}
				var srv StreamInfra = ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
				if shards > 1 {
					if srv, err = ssi.NewShardSet(w, shards, ssi.HonestButCurious, ssi.Behavior{}); err != nil {
						t.Fatal(err)
					}
				}
				fp, stats, err := p.run(w, srv, New(WithWorkers(1), WithTopology(topo)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ordered := !topo.IsTree() && p.name != "stream"
				got[name] = transcriptDigest(w.frames, ordered, stats, fp)
			}
		}
	}
	if len(got) != 18 {
		t.Fatalf("covered %d cells, want 18", len(got))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: transcript digest %s, want %s", name, got[name], want[name])
		}
	}
}
