package gquery

import (
	"encoding/binary"
	"errors"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/ssi"
)

// TestOneFramePerLeg: on a clean, one-SSI run every bulk leg is one
// message — one "tuple" frame per participant, one dispatch frame per
// chunk, one "tree-partial" frame per interior node of the merge tree,
// one "partial" upload per worker call — for every protocol with a fold
// plane and over a participant source. A single-chunk run has no
// interior node and sends no merge frame, and its one token, the root,
// uploads no partial.
func TestOneFramePerLeg(t *testing.T) {
	parts := makeParts(29, 4, testDomain, 51)
	kr := mustKeyring(t)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, kind string
		run        func(net *netsim.Network, srv *ssi.Server) (RunStats, error)
	}{
		{"secure-agg", "chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().SecureAgg(net, srv, parts, kr, 7)
			return stats, err
		}},
		{"secure-agg-tree", "chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New(WithTopology(Tree(4))).SecureAgg(net, srv, parts, kr, 7)
			return stats, err
		}},
		{"single-chunk", "chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().SecureAgg(net, srv, parts, kr, 4*len(parts))
			return stats, err
		}},
		{"noise", "group-chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().Noise(net, srv, parts, kr, testDomain, 1, ControlledNoise, 3)
			return stats, err
		}},
		{"histogram", "bucket-chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().Histogram(net, srv, parts, kr, buckets)
			return stats, err
		}},
		{"stream", "chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().SecureAggStream(net, srv, generate(parts), kr, 7)
			return stats, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			reg := obs.NewRegistry()
			net.SetObserver(reg)
			stats, err := c.run(net, srv)
			if err != nil {
				t.Fatal(err)
			}
			if got := reg.CounterValue(netsim.MetricKindMessages, "kind", "tuple"); got != int64(len(parts)) {
				t.Errorf("tuple messages = %d, want one frame per participant (%d)", got, len(parts))
			}
			if got := reg.CounterValue(netsim.MetricKindMessages, "kind", c.kind); got != int64(stats.Chunks) || got == 0 {
				t.Errorf("%s messages = %d, want one frame per chunk (%d)", c.kind, got, stats.Chunks)
			}
			got := reg.CounterValue(netsim.MetricKindMessages, "kind", "tree-partial")
			if got != int64(stats.TreeNodes) || (got == 0) != (stats.Chunks == 1) {
				t.Errorf("tree-partial messages = %d, want one frame per interior node (%d) over %d chunks",
					got, stats.TreeNodes, stats.Chunks)
			}
			got = reg.CounterValue(netsim.MetricKindMessages, "kind", "partial")
			if got != int64(stats.WorkerCalls) || (got == 0) != (stats.Chunks == 1) {
				t.Errorf("partial messages = %d, want one per worker call (%d) over %d chunks",
					got, stats.WorkerCalls, stats.Chunks)
			}
		})
	}
}

// tamperWire rewrites the first frame of one kind in flight on the clean
// wire's direct path.
type tamperWire struct {
	*netsim.Network
	kind   string
	tamper func(frame []byte) []byte
	done   bool
}

func (w *tamperWire) Send(e netsim.Envelope) netsim.Envelope {
	e = w.Network.Send(e)
	if e.Kind == w.kind && !w.done {
		w.done = true
		e.Payload = w.tamper(append([]byte(nil), e.Payload...))
	}
	return e
}

// A frame truncated, with one length prefix rewritten, or with a record
// duplicated or rewritten in flight ends the run in a typed DetectionError, never in
// a partial fold that passes: a frame that no longer splits into the
// sealed records the SSI relayed is a MAC failure, and one cut at a
// record boundary or grown by a copied record folds the wrong tuples
// for the checksum. That holds on every hop the SSI relays: the chunk
// frame a fold token opens and the "tree-partial" frame a merging token
// opens, the flat root's as well as a Tree(4) node's.
func TestTamperedChunkFrameDetected(t *testing.T) {
	parts := makeParts(20, 3, testDomain, 53)
	kr := mustKeyring(t)
	prefix := func(frame []byte, i int) int { // offset of record i's length prefix
		off := 0
		for ; i > 0; i-- {
			off += recordPrefix + int(binary.LittleEndian.Uint32(frame[off:]))
		}
		return off
	}
	records := func(frame []byte) int {
		n := 0
		eachRecord(frame, func([]byte) bool { n++; return true })
		return n
	}
	tampers := []struct {
		name, reason string
		tamper       func(frame []byte) []byte
	}{
		{"truncate-record", "mac-failure", func(f []byte) []byte { return f[:len(f)-9] }},
		{"truncate-prefix", "mac-failure", func(f []byte) []byte { return f[:prefix(f, 2)+2] }},
		{"truncate-at-record", "checksum-mismatch", func(f []byte) []byte { return f[:prefix(f, records(f)-1)] }},
		{"prefix-past-end", "mac-failure", func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[prefix(f, 1):], uint32(len(f)))
			return f
		}},
		{"prefix-short", "mac-failure", func(f []byte) []byte {
			at := prefix(f, 1)
			binary.LittleEndian.PutUint32(f[at:], binary.LittleEndian.Uint32(f[at:])-1)
			return f
		}},
		{"prefix-swallows-next", "mac-failure", func(f []byte) []byte {
			at := prefix(f, 0)
			binary.LittleEndian.PutUint32(f[at:], uint32(prefix(f, 2)-recordPrefix))
			return f
		}},
		{"duplicate-record", "checksum-mismatch", func(f []byte) []byte { return append(f, f[:prefix(f, 1)]...) }},
		{"forge-record", "mac-failure", func(f []byte) []byte {
			f[prefix(f, 1)-1] ^= 0xff // the last byte of record 0: its MAC
			return f
		}},
	}
	for _, hop := range []struct {
		prefix, kind string // a chunk case is named by its tamper alone
		topo         Topology
	}{
		{"", "chunk", Flat()},
		{"merge-flat/", "tree-partial", Flat()},
		{"merge-tree4/", "tree-partial", Tree(4)},
	} {
		for _, c := range tampers {
			t.Run(hop.prefix+c.name, func(t *testing.T) {
				w := &tamperWire{Network: netsim.New(), kind: hop.kind, tamper: c.tamper}
				srv := ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
				_, stats, err := New(WithTopology(hop.topo)).SecureAgg(w, srv, parts, kr, 6)
				if !w.done {
					t.Fatalf("no %s frame crossed the wire — test is vacuous", hop.kind)
				}
				var de *DetectionError
				if !errors.As(err, &de) || de.Reason != c.reason || !stats.Detected {
					t.Fatalf("tampered frame: err = %v, stats %+v; want a %s DetectionError", err, stats, c.reason)
				}
			})
		}
	}
}
