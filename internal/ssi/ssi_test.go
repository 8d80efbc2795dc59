package ssi

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pds/internal/netsim"
	"pds/internal/race"
)

func env(payload string) netsim.Envelope {
	return netsim.Envelope{From: "p", To: "ssi", Kind: "tuple", Payload: []byte(payload)}
}

func TestReceiveAndObservations(t *testing.T) {
	s := New(netsim.New(), HonestButCurious, Behavior{})
	s.Receive(env("aaa"))
	s.Receive(env("bbb"))
	s.Receive(env("aaa")) // duplicate payload
	o := s.Observations()
	if o.Envelopes != 3 || o.Bytes != 9 {
		t.Errorf("observations = %+v", o)
	}
	if o.DistinctPayloads != 2 {
		t.Errorf("distinct payloads = %d, want 2", o.DistinctPayloads)
	}
	if chunks, err := s.Partition(3); err != nil || len(chunks) != 1 || len(chunks[0]) != 3 {
		t.Errorf("inbox partitions as %d chunks (%v), want one of 3", len(chunks), err)
	}
	if o2 := s.Observations(); o2.Envelopes != o.Envelopes || o2.Bytes != o.Bytes || o2.DistinctPayloads != o.DistinctPayloads {
		t.Errorf("partition re-observed the inbox: %+v, then %+v", o, o2)
	}
}

func TestObserveGroupFrequencies(t *testing.T) {
	s := New(netsim.New(), HonestButCurious, Behavior{})
	s.ObserveGroup([]byte("g1"))
	s.ObserveGroup([]byte("g1"))
	s.ObserveGroup([]byte("g2"))
	o := s.Observations()
	if o.GroupFrequencies["g1"] != 2 || o.GroupFrequencies["g2"] != 1 {
		t.Errorf("frequencies = %v", o.GroupFrequencies)
	}
	hist := o.FrequencyHistogram()
	if len(hist) != 2 || hist[0] != 2 || hist[1] != 1 {
		t.Errorf("histogram = %v", hist)
	}
}

// Observing a key already seen allocates nothing, on one server or
// routed through a shard set: a key string is made at its first sight
// only, and Observations reports the same frequencies.
func TestObserveGroupAllocCeiling(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := New(netsim.New(), HonestButCurious, Behavior{})
	nodes := Servers(netsim.New(), 3, HonestButCurious, Behavior{})
	ss := NewShardSet(nodes)
	key := []byte("a deterministic group ciphertext")
	s.ObserveGroup(key)
	ss.ObserveGroup(key)
	if got := testing.AllocsPerRun(200, func() { s.ObserveGroup(key) }); got > 0 {
		t.Errorf("Server.ObserveGroup: %.1f allocs/op, ceiling 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { ss.ObserveGroup(key) }); got > 0 {
		t.Errorf("ShardSet.ObserveGroup: %.1f allocs/op, ceiling 0", got)
	}
	shards := Observations{GroupFrequencies: map[string]int{}}
	for _, n := range nodes {
		for k, v := range n.(*Server).Observations().GroupFrequencies {
			shards.GroupFrequencies[k] += v
		}
	}
	// AllocsPerRun calls once more than it counts.
	for _, o := range []Observations{s.Observations(), shards} {
		if len(o.GroupFrequencies) != 1 || o.GroupFrequencies[string(key)] != 202 {
			t.Errorf("frequencies = %v, want %q 202 times", o.GroupFrequencies, key)
		}
	}
}

// The bytes a wire delivers are valid only for the duration of the
// call, so the server copies every record it keeps: a streaming chunk's
// records and the batch inbox's stay intact after the caller overwrites
// the payload it delivered.
func TestReceiveCopiesWhatItKeeps(t *testing.T) {
	buf := make([]byte, 24)
	deliver := func(s *Server, b byte) {
		for i := range buf {
			buf[i] = b
		}
		s.Receive(netsim.Envelope{From: "pds-1", To: "ssi", Kind: "tuple", Payload: buf})
	}
	check := func(mode string, chunks [][]netsim.Envelope) {
		t.Helper()
		var got []byte
		for _, c := range chunks {
			for _, e := range c {
				if !bytes.Equal(e.Payload, bytes.Repeat(e.Payload[:1], len(buf))) {
					t.Errorf("%s: record %x was overwritten", mode, e.Payload)
				}
				got = append(got, e.Payload[0])
			}
		}
		if !bytes.Equal(got, []byte{1, 2, 3}) || len(chunks) != 2 {
			t.Errorf("%s: records %v in %d chunks, want [1 2 3] in 2", mode, got, len(chunks))
		}
	}

	s := New(netsim.New(), HonestButCurious, Behavior{})
	var chunks [][]netsim.Envelope
	if err := s.StartStream(2, func(c []netsim.Envelope) { chunks = append(chunks, c) }); err != nil {
		t.Fatal(err)
	}
	for b := byte(1); b <= 3; b++ {
		deliver(s, b)
	}
	if err := s.FinishStream(); err != nil {
		t.Fatal(err)
	}
	deliver(New(netsim.New(), HonestButCurious, Behavior{}), 0xff)
	check("stream", chunks)

	s = New(netsim.New(), HonestButCurious, Behavior{})
	for b := byte(1); b <= 3; b++ {
		deliver(s, b)
	}
	deliver(New(netsim.New(), HonestButCurious, Behavior{}), 0xff)
	chunks, err := s.Partition(2)
	if err != nil {
		t.Fatal(err)
	}
	check("batch", chunks)
}

func TestPartitionHonest(t *testing.T) {
	s := New(netsim.New(), HonestButCurious, Behavior{})
	for i := 0; i < 10; i++ {
		s.Receive(env("x"))
	}
	chunks, err := s.Partition(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 4 {
		t.Fatalf("chunks = %d, want 4", len(chunks))
	}
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 10 {
		t.Errorf("partition lost envelopes: %d", total)
	}
	if again, err := s.Partition(3); err != nil || len(again) != 0 {
		t.Errorf("inbox not consumed: %d more chunks (%v)", len(again), err)
	}
}

func TestPartitionBadChunkSize(t *testing.T) {
	s := New(netsim.New(), HonestButCurious, Behavior{})
	if _, err := s.Partition(0); err == nil {
		t.Error("chunkSize=0 accepted")
	}
}

func TestWeaklyMaliciousDrops(t *testing.T) {
	s := New(netsim.New(), WeaklyMalicious, Behavior{DropRate: 1.0, Seed: 1})
	for i := 0; i < 20; i++ {
		s.Receive(env("x"))
	}
	chunks, _ := s.Partition(100)
	if len(chunks) != 0 {
		t.Errorf("full drop left %d chunks", len(chunks))
	}
}

func TestWeaklyMaliciousDuplicates(t *testing.T) {
	s := New(netsim.New(), WeaklyMalicious, Behavior{DuplicateRate: 1.0, Seed: 2})
	for i := 0; i < 10; i++ {
		s.Receive(env("x"))
	}
	chunks, _ := s.Partition(1000)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 20 {
		t.Errorf("full duplication yielded %d envelopes, want 20", total)
	}
}

func TestWeaklyMaliciousForges(t *testing.T) {
	s := New(netsim.New(), WeaklyMalicious, Behavior{ForgeRate: 1.0, Seed: 3})
	s.Receive(env("original-payload"))
	chunks, _ := s.Partition(10)
	if len(chunks) != 1 || len(chunks[0]) != 1 {
		t.Fatalf("unexpected chunks %v", chunks)
	}
	if string(chunks[0][0].Payload) == "original-payload" {
		t.Error("forgery left payload intact")
	}
}

func TestHonestNeverCorrupts(t *testing.T) {
	// Even with misbehaviour rates configured, an HbC server follows the
	// protocol.
	s := New(netsim.New(), HonestButCurious, Behavior{DropRate: 1, Seed: 4})
	for i := 0; i < 5; i++ {
		s.Receive(env("x"))
	}
	chunks, _ := s.Partition(10)
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total != 5 {
		t.Errorf("HbC server altered traffic: %d", total)
	}
}

func TestHashIDStable(t *testing.T) {
	a := HashID("pds-1", 0)
	b := HashID("pds-1", 0)
	c := HashID("pds-1", 1)
	d := HashID("pds-2", 0)
	if a != b {
		t.Error("HashID not deterministic")
	}
	if a == c || a == d {
		t.Error("HashID collisions on distinct inputs")
	}
}

func TestModeString(t *testing.T) {
	if HonestButCurious.String() != "honest-but-curious" || WeaklyMalicious.String() != "weakly-malicious" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string wrong")
	}
}

func TestConcurrentReceiveAndObserve(t *testing.T) {
	// A parallel token fleet uploads and reports group observations
	// concurrently; the server's counters must stay exact and race-free.
	s := New(netsim.New(), HonestButCurious, Behavior{})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				s.Receive(env(fmt.Sprintf("payload-%d-%d", i, j)))
				s.ObserveGroup([]byte{byte(i % 4)})
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			s.Observations()
		}
	}()
	wg.Wait()
	<-done
	obs := s.Observations()
	if obs.Envelopes != 800 || obs.DistinctPayloads != 800 {
		t.Errorf("observations = %+v", obs)
	}
	total := 0
	for _, f := range obs.GroupFrequencies {
		total += f
	}
	if total != 800 {
		t.Errorf("group frequency total = %d, want 800", total)
	}
	if chunks, err := s.Partition(1000); err != nil || len(chunks) != 1 || len(chunks[0]) != 800 {
		t.Errorf("inbox partitions as %d chunks (%v), want one of 800", len(chunks), err)
	}
}

// Ids captured while HashID still formatted its input through fmt: the
// tuple-id checksum of every protocol is a sum of these.
func TestHashIDGoldenVectorsAndAllocs(t *testing.T) {
	for _, c := range []struct {
		pds  string
		seq  int
		want uint64
	}{
		{"pds-0001", 0, 0x6fcca6ba204184fd},
		{"", 0, 0x9b3c5f2852d40f9d},
		{"pds#1", 12, 0x61ed2b6561056b1c},
		{"x", 1234567, 0xd1495ad45fec3ed2},
		{"p", -5, 0x7526b30893478563},
	} {
		if got := HashID(c.pds, c.seq); got != c.want {
			t.Errorf("HashID(%q, %d) = %#x, want %#x", c.pds, c.seq, got, c.want)
		}
	}
	long := strings.Repeat("participant-", 10) // spills the stack buffer
	if got, want := HashID(long, 7), binary.LittleEndian.Uint64(sha256Of(long+"#7")); got != want {
		t.Errorf("HashID of a %d-byte id = %#x, want %#x", len(long), got, want)
	}
	if got := testing.AllocsPerRun(200, func() { HashID("pds-0042", 17) }); got > 0 {
		t.Errorf("HashID: %.1f allocs/op, ceiling 0", got)
	}
}

func sha256Of(s string) []byte {
	h := sha256.Sum256([]byte(s))
	return h[:]
}
