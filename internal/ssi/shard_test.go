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
	ss := NewShardSet(Servers(testNet(t), 4, HonestButCurious, Behavior{}))
	hit := map[int]bool{}
	for i := 0; i < 200; i++ {
		pds := fmt.Sprintf("pds-%05d", i)
		r1, r2 := ss.Route(pds), ss.Route(pds)
		if r1 != r2 {
			t.Fatalf("unstable route for %s: %d vs %d", pds, r1, r2)
		}
		if r1 < 0 || r1 >= 4 {
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

// streamAll opens a stream of the given chunk size on ss and returns
// the envelopes its chunks have delivered so far.
func streamAll(t *testing.T, ss *ShardSet, chunkSize int) *[]netsim.Envelope {
	t.Helper()
	var got []netsim.Envelope
	if err := ss.StartStream(chunkSize, func(chunk []netsim.Envelope) {
		if len(chunk) > chunkSize {
			t.Fatalf("oversized chunk: %d", len(chunk))
		}
		got = append(got, chunk...)
	}); err != nil {
		t.Fatal(err)
	}
	return &got
}

func TestShardPartitionConcatenatesAllUploads(t *testing.T) {
	nodes := Servers(testNet(t), 3, HonestButCurious, Behavior{})
	ss := NewShardSet(nodes)
	got := streamAll(t, ss, 7)
	const n = 50
	for i := 0; i < n; i++ {
		from := fmt.Sprintf("pds-%05d", i)
		ss.Receive(netsim.Envelope{From: from, To: ss.Dest(from), Kind: "tuple", Payload: []byte{byte(i)}})
	}
	if err := ss.FinishStream(); err != nil {
		t.Fatal(err)
	}
	seen := map[byte]bool{}
	for _, e := range *got {
		seen[e.Payload[0]] = true
	}
	if len(*got) != n || len(seen) != n {
		t.Fatalf("stream delivered %d envelopes, %d distinct; want %d", len(*got), len(seen), n)
	}
	envelopes := 0
	for _, node := range nodes {
		envelopes += node.(*Server).Observations().Envelopes
	}
	if envelopes != n {
		t.Fatalf("shards saw %d envelopes, want %d", envelopes, n)
	}
}

func TestShardFailLosesItsTuples(t *testing.T) {
	ss := NewShardSet(Servers(testNet(t), 2, HonestButCurious, Behavior{}))
	got := streamAll(t, ss, 1<<30)
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
	// Uploads to the dead shard vanish.
	deadPDS := ""
	for i := 40; deadPDS == ""; i++ {
		if p := fmt.Sprintf("pds-%05d", i); ss.Route(p) == 0 {
			deadPDS = p
		}
	}
	ss.Receive(netsim.Envelope{From: deadPDS, Kind: "tuple", Payload: []byte{0xFF}})
	if err := ss.FinishStream(); err != nil {
		t.Fatal(err)
	}
	if len(*got) != onLive {
		t.Fatalf("stream after Fail delivered %d envelopes, want %d (live shard only)", len(*got), onLive)
	}
}

// A shard that fails mid-stream keeps the chunks it emitted before, and
// every later chunk of it, its remainder included, goes nowhere.
func TestShardFailMidStreamGatesLaterChunks(t *testing.T) {
	ss := NewShardSet(Servers(testNet(t), 2, HonestButCurious, Behavior{}))
	got := streamAll(t, ss, 2)
	perShard := [2]int{}
	upload := func(i int) {
		from := fmt.Sprintf("pds-%05d", i)
		perShard[ss.Route(from)]++
		ss.Receive(netsim.Envelope{From: from, Kind: "tuple", Payload: []byte{byte(i)}})
	}
	for i := 0; i < 20; i++ {
		upload(i)
	}
	before := perShard
	ss.Fail(0)
	for i := 20; i < 41; i++ {
		upload(i)
	}
	if err := ss.FinishStream(); err != nil {
		t.Fatal(err)
	}
	// Shard 0 emitted its full chunks of two before the failure.
	if want := before[0]/2*2 + perShard[1]; len(*got) != want {
		t.Fatalf("delivered %d envelopes, want %d (shard 0's %d pre-failure chunks' tuples and all %d of shard 1)",
			len(*got), want, before[0]/2*2, perShard[1])
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
