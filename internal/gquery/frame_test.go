package gquery

import (
	"encoding/binary"
	"errors"
	"testing"

	"pds/internal/netsim"
	"pds/internal/ssi"
)

// TestOneFramePerLeg: on a clean, flat, one-SSI run every bulk leg is one
// message — one "tuple" frame per participant, one dispatch frame per
// chunk — for every protocol with a fold plane and for the stream
// executor.
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
		{"noise", "group-chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().Noise(net, srv, parts, kr, testDomain, 1, ControlledNoise, 3)
			return stats, err
		}},
		{"histogram", "bucket-chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().Histogram(net, srv, parts, kr, buckets)
			return stats, err
		}},
		{"stream", "chunk", func(net *netsim.Network, srv *ssi.Server) (RunStats, error) {
			_, stats, err := New().SecureAggStream(net, srv, SliceSource(parts), kr, 7)
			return stats, err
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			stats, err := c.run(net, srv)
			if err != nil {
				t.Fatal(err)
			}
			if got := net.KindStats("tuple").Messages; got != int64(len(parts)) {
				t.Errorf("tuple messages = %d, want one frame per participant (%d)", got, len(parts))
			}
			if got := net.KindStats(c.kind).Messages; got != int64(stats.Chunks) || got == 0 {
				t.Errorf("%s messages = %d, want one frame per chunk (%d)", c.kind, got, stats.Chunks)
			}
		})
	}
}

// tamperWire rewrites the first dispatch frame of one kind in flight on
// the clean wire's direct path.
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

// A chunk frame truncated or with one length prefix rewritten in flight
// ends the run in a typed DetectionError, never in a partial fold that
// passes: a frame that no longer splits into the sealed records the SSI
// dispatched is a MAC failure, and one cut at a record boundary folds
// too few tuples for the checksum.
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
	for _, c := range []struct {
		name, reason string
		tamper       func(frame []byte) []byte
	}{
		{"truncate-record", "mac-failure", func(f []byte) []byte { return f[:len(f)-9] }},
		{"truncate-prefix", "mac-failure", func(f []byte) []byte { return f[:prefix(f, 2)+2] }},
		{"truncate-at-record", "checksum-mismatch", func(f []byte) []byte { return f[:prefix(f, 4)] }},
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
	} {
		t.Run(c.name, func(t *testing.T) {
			w := &tamperWire{Network: netsim.New(), kind: "chunk", tamper: c.tamper}
			srv := ssi.New(w, ssi.HonestButCurious, ssi.Behavior{})
			_, stats, err := New().SecureAgg(w, srv, parts, kr, 6)
			var de *DetectionError
			if !errors.As(err, &de) || de.Reason != c.reason || !stats.Detected {
				t.Fatalf("tampered frame: err = %v, stats %+v; want a %s DetectionError", err, stats, c.reason)
			}
			if !w.done {
				t.Fatal("no chunk frame crossed the wire — test is vacuous")
			}
		})
	}
}
