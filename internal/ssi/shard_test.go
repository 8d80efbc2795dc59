package ssi

import (
	"fmt"
	"testing"

	"pds/internal/netsim"
	"pds/internal/obs"
)

func testNet(t *testing.T) *netsim.Network {
	t.Helper()
	return netsim.New()
}

func TestShardRouteStableAndCovering(t *testing.T) {
	ss, err := NewShardSet(testNet(t), 4, HonestButCurious, Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	hit := map[int]bool{}
	for i := 0; i < 200; i++ {
		pds := fmt.Sprintf("pds-%05d", i)
		r1, r2 := ss.Route(pds), ss.Route(pds)
		if r1 != r2 {
			t.Fatalf("unstable route for %s: %d vs %d", pds, r1, r2)
		}
		if r1 < 0 || r1 >= ss.Len() {
			t.Fatalf("route out of range: %d", r1)
		}
		if want := fmt.Sprintf("ssi:%d", r1); ss.Dest(pds) != want {
			t.Fatalf("Dest = %q, want %q", ss.Dest(pds), want)
		}
		hit[r1] = true
	}
	if len(hit) != 4 {
		t.Fatalf("200 PDS ids covered only %d of 4 shards", len(hit))
	}
}

func TestShardPartitionConcatenatesAllUploads(t *testing.T) {
	ss, err := NewShardSet(testNet(t), 3, HonestButCurious, Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		from := fmt.Sprintf("pds-%05d", i)
		ss.Receive(netsim.Envelope{From: from, To: ss.Dest(from), Kind: "tuple", Payload: []byte{byte(i)}})
	}
	if got := ss.Pending(); got != n {
		t.Fatalf("Pending = %d, want %d", got, n)
	}
	chunks, err := ss.Partition(7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[byte]bool{}
	for _, c := range chunks {
		for _, e := range c {
			seen[e.Payload[0]] = true
		}
	}
	if len(seen) != n {
		t.Fatalf("partition returned %d distinct envelopes, want %d", len(seen), n)
	}
	if ss.Observations().Envelopes != n {
		t.Fatalf("merged observations saw %d envelopes, want %d", ss.Observations().Envelopes, n)
	}
}

func TestShardFailLosesItsTuples(t *testing.T) {
	ss, err := NewShardSet(testNet(t), 2, HonestButCurious, Behavior{})
	if err != nil {
		t.Fatal(err)
	}
	var onDead, onLive int
	for i := 0; i < 40; i++ {
		from := fmt.Sprintf("pds-%05d", i)
		ss.Receive(netsim.Envelope{From: from, Kind: "tuple", Payload: []byte{byte(i)}})
		if ss.Route(from) == 0 {
			onDead++
		} else {
			onLive++
		}
	}
	if onDead == 0 || onLive == 0 {
		t.Fatalf("degenerate placement: dead=%d live=%d", onDead, onLive)
	}
	ss.Fail(0)
	if !ss.Failed(0) || ss.Failed(1) {
		t.Fatal("Fail(0) should mark exactly shard 0")
	}
	// Uploads to the dead shard vanish.
	deadPDS := ""
	for i := 40; deadPDS == ""; i++ {
		if p := fmt.Sprintf("pds-%05d", i); ss.Route(p) == 0 {
			deadPDS = p
		}
	}
	ss.Receive(netsim.Envelope{From: deadPDS, Kind: "tuple", Payload: []byte{0xFF}})
	chunks, err := ss.Partition(1 << 30)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, c := range chunks {
		got += len(c)
	}
	if got != onLive {
		t.Fatalf("partition after Fail returned %d envelopes, want %d (live shard only)", got, onLive)
	}
}

func TestServerStreamingMatchesBatchSchedule(t *testing.T) {
	// The covert misbehaviour schedule must be a function of upload
	// position only, identical between batch Partition and streaming.
	b := Behavior{DropRate: 0.15, DuplicateRate: 0.1, ForgeRate: 0.1, Seed: 42}
	const n = 200
	mk := func(i int) netsim.Envelope {
		return netsim.Envelope{From: fmt.Sprintf("pds-%05d", i), Kind: "tuple", Payload: []byte{byte(i), byte(i >> 8), 7}}
	}

	batch := New(testNet(t), WeaklyMalicious, b)
	for i := 0; i < n; i++ {
		batch.Receive(mk(i))
	}
	bchunks, err := batch.Partition(9)
	if err != nil {
		t.Fatal(err)
	}
	var bflat []netsim.Envelope
	for _, c := range bchunks {
		bflat = append(bflat, c...)
	}

	stream := New(testNet(t), WeaklyMalicious, b)
	var sflat []netsim.Envelope
	if err := stream.StartStream(9, func(chunk []netsim.Envelope) {
		if len(chunk) > 9 {
			t.Fatalf("oversized chunk: %d", len(chunk))
		}
		sflat = append(sflat, chunk...)
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Partition(9); err == nil {
		t.Fatal("batch Partition should be rejected in streaming mode")
	}
	for i := 0; i < n; i++ {
		stream.Receive(mk(i))
	}
	stream.FinishStream()

	if len(sflat) != len(bflat) {
		t.Fatalf("stream emitted %d envelopes, batch %d", len(sflat), len(bflat))
	}
	for i := range sflat {
		if string(sflat[i].Payload) != string(bflat[i].Payload) || sflat[i].From != bflat[i].From {
			t.Fatalf("envelope %d diverges between stream and batch", i)
		}
	}
}

func TestStreamingSkipsDistinctPayloadTracking(t *testing.T) {
	s := New(testNet(t), HonestButCurious, Behavior{})
	if err := s.StartStream(4, func([]netsim.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Receive(netsim.Envelope{From: "pds-00001", Kind: "tuple", Payload: []byte{byte(i)}})
	}
	s.FinishStream()
	o := s.Observations()
	if o.Envelopes != 10 {
		t.Fatalf("Envelopes = %d, want 10", o.Envelopes)
	}
	if o.DistinctPayloads != 0 {
		t.Fatalf("DistinctPayloads tracked in streaming mode: %d", o.DistinctPayloads)
	}
	if len(s.payloads) != 0 {
		t.Fatalf("payload dedup map grew to %d entries in streaming mode", len(s.payloads))
	}
}

// TestStreamIsOnePartitionSpan: a stream is one ssi/partition span, from
// StartStream to FinishStream, parented under the context BindTrace gave
// and annotated with the mode, the envelopes received and the chunks
// emitted.
func TestStreamIsOnePartitionSpan(t *testing.T) {
	net := testNet(t)
	reg := obs.NewRegistry()
	net.SetObserver(reg)
	phase := reg.Tracer().Start("collect-encrypt", nil)
	s := New(net, HonestButCurious, Behavior{})
	s.BindTrace(phase.Context())
	if err := s.StartStream(4, func([]netsim.Envelope) {}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Receive(netsim.Envelope{From: "pds-00001", Kind: "tuple", Payload: []byte{byte(i)}})
	}
	if err := s.FinishStream(); err != nil {
		t.Fatal(err)
	}
	if err := s.FinishStream(); err == nil {
		t.Error("FinishStream without an open stream succeeded")
	}
	phase.End()
	var spans []obs.SpanRecord
	for _, sp := range reg.Snapshot().Spans {
		if sp.Name == "ssi/partition" {
			spans = append(spans, sp)
		}
	}
	if len(spans) != 1 {
		t.Fatalf("%d ssi/partition spans, want 1", len(spans))
	}
	sp := spans[0]
	if sp.Parent == 0 || sp.Attrs["mode"] != "honest-but-curious" || sp.Attrs["envelopes"] != "10" || sp.Attrs["chunks"] != "3" {
		t.Errorf("stream span parent %d, attrs %v; want a parent, mode, 10 envelopes, 3 chunks", sp.Parent, sp.Attrs)
	}
}
