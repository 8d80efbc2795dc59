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

// transcriptDigest hashes a run's wire transcript in frame order, its
// RunStats (critical path included) and its result fingerprint.
func transcriptDigest(frames []string, stats RunStats, fp string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%+v\n%s\n", strings.Join(frames, "\n"), stats, fp)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestProtocolTranscriptGolden pins what every Part III protocol puts on
// the wire, what it reports and what it answers, over both fold
// topologies and both SSI shapes. Every cell is pinned frame by frame:
// one worker folds inline on the run's goroutine, so the order of the
// frames is part of the run. SecureAgg is SecureAggStream over a slice,
// so each stream cell equals its secure-agg cell.
func TestProtocolTranscriptGolden(t *testing.T) {
	want := map[string]string{
		"secure-agg/flat/ssi1":    "2f5bea6ff4cf8b2b",
		"secure-agg/flat/ssi3":    "e0682304bc2ae703",
		"secure-agg/tree(4)/ssi1": "37ac8ccd14a758b3",
		"secure-agg/tree(4)/ssi3": "25d506ab28c76303",
		"noise/flat/ssi1":         "0ad289dbb0fda7d8",
		"noise/flat/ssi3":         "fdd53c355b0def3e",
		"noise/tree(4)/ssi1":      "1d09eb4d74b01b4c",
		"noise/tree(4)/ssi3":      "4f087b952ecac70e",
		"histogram/flat/ssi1":     "2fdd641a988eeaf8",
		"histogram/flat/ssi3":     "a1cf7ef2b87352a0",
		"histogram/tree(4)/ssi1":  "2fdd641a988eeaf8",
		"histogram/tree(4)/ssi3":  "a1cf7ef2b87352a0",
		"paillier/flat/ssi1":      "5493aec5198515bb",
		"paillier/flat/ssi3":      "a8fc35edf5b814fc",
		"stream/flat/ssi1":        "2f5bea6ff4cf8b2b",
		"stream/flat/ssi3":        "e0682304bc2ae703",
		"stream/tree(4)/ssi1":     "37ac8ccd14a758b3",
		"stream/tree(4)/ssi3":     "25d506ab28c76303",
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
		run  func(w tnet.Transport, srv Infra, eng *Engine) (string, RunStats, error)
	}
	protos := []cell{
		{"secure-agg", func(w tnet.Transport, srv Infra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.SecureAgg(w, srv, parts, kr, 5)
			return fpResult(res), stats, err
		}},
		{"noise", func(w tnet.Transport, srv Infra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.Noise(w, srv, parts, kr, testDomain, 1, ControlledNoise, 23)
			return fpResult(res), stats, err
		}},
		{"histogram", func(w tnet.Transport, srv Infra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.Histogram(w, srv, parts, kr, buckets)
			return fpBuckets(res), stats, err
		}},
		{"paillier", func(w tnet.Transport, srv Infra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.PaillierAgg(w, srv, parts, kr, sk.Public(), sk)
			return fpResult(res), stats, err
		}},
		{"stream", func(w tnet.Transport, srv Infra, eng *Engine) (string, RunStats, error) {
			res, stats, err := eng.SecureAggStream(w, srv, SliceSource(parts), kr, 5)
			return fpResult(res), stats, err
		}},
	}
	got := map[string]string{}
	for _, p := range protos {
		for _, topo := range []Topology{Flat(), Tree(4)} {
			if p.name == "paillier" && topo.Arity() != 0 {
				continue // the SSI folds Paillier ciphertexts itself: no fold plane
			}
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/%s/ssi%d", p.name, topo, shards)
				w := &recWire{Network: netsim.New()}
				var srv Infra = ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
				if shards > 1 {
					srv = ssi.NewShardSet(ssi.Servers(w, shards, ssi.HonestButCurious, ssi.Behavior{}))
				}
				fp, stats, err := p.run(w, srv, New(WithWorkers(1), WithTopology(topo)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got[name] = transcriptDigest(w.frames, stats, fp)
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
		if stream, ok := strings.CutPrefix(name, "stream/"); ok && got[name] != got["secure-agg/"+stream] {
			t.Errorf("%s: transcript differs from its secure-agg cell", name)
		}
	}
}
