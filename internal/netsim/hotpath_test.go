package netsim

import (
	"encoding/hex"
	"math"
	"reflect"
	"testing"

	"pds/internal/obs"
	"pds/internal/race"
)

func seqBytes(n, mul, add int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*mul + add)
	}
	return b
}

// Draws captured before HashUniform laid its fields out in a scratch
// buffer: every seeded fault and corruption schedule is a function of
// these bits, so they must not move.
func TestHashUniformGoldenVectors(t *testing.T) {
	pay := seqBytes(100, 7, 0)
	for i, c := range []struct {
		seed   int64
		fields [][]byte
		want   uint64
	}{
		{0, nil, 0x3fde82e0687d5c14},
		{1, nil, 0x3fe4c7e83a86d433},
		{-1, [][]byte{{}}, 0x3fd3d72fe1cfa6b0},
		{42, [][]byte{[]byte("netsim-fault")}, 0x3fe646aacff010fe},
		{42, [][]byte{[]byte("a"), []byte("b")}, 0x3fec64a998568f33},
		{42, [][]byte{[]byte("ab"), {}}, 0x3fed1ecf6126769b},
		{7, [][]byte{[]byte("netsim-fault"), []byte("tuple"), []byte("pds-0001"), []byte("ssi"), pay}, 0x3fee9e1ebca925e3},
		{1 << 62, [][]byte{seqBytes(1000, 13, 5)}, 0x3fe446c125f3aea8}, // outgrows the pooled scratch
		{3, [][]byte{[]byte("ssi-corrupt"), {9, 0, 0, 0, 0, 0, 0, 0}}, 0x3fd3a4cadc535a7a},
		{99, [][]byte{[]byte("netsim-flush"), []byte("chunk/ack"), pay[:59]}, 0x3fec2464047fdfbe},
	} {
		// Twice: the second draw reuses the scratch the first returned.
		for round := 0; round < 2; round++ {
			if got := math.Float64bits(HashUniform(c.seed, c.fields...)); got != c.want {
				t.Errorf("case %d round %d: HashUniform = %#x, want %#x", i, round, got, c.want)
			}
		}
	}
	// The plane's own layout of a fault draw is the public function's.
	fp := NewFaultPlane(FaultPlan{Seed: 7, Default: FaultSpec{Drop: 0.96}})
	if got := fp.decide(Envelope{From: "pds-0001", To: "ssi", Kind: "tuple", Payload: pay}); got != faultDrop {
		t.Errorf("decide at u=0.957 under Drop=0.96 = %d, want drop", got)
	}
	fp = NewFaultPlane(FaultPlan{Seed: 7, Default: FaultSpec{Drop: 0.95}})
	if got := fp.decide(Envelope{From: "pds-0001", To: "ssi", Kind: "tuple", Payload: pay}); got != faultNone {
		t.Errorf("decide at u=0.957 under Drop=0.95 = %d, want none", got)
	}
}

func TestEncodeFrameGoldenVectors(t *testing.T) {
	for _, c := range []struct {
		frame []byte
		want  string
	}{
		{EncodeFrame(1, 0, false, obs.SpanContext{}, []byte("hello")),
			"01000000000000000000000000000000000000000000000000000068656c6c6fcd5d3feb9dfea3db9d0cc2deb61eb62cf2a3b16fa79f9f01e192650d993bf368"},
		{EncodeFrame(0xdeadbeef, 3, true, obs.SpanContext{Trace: 7, Span: 9}, nil),
			"efbeadde000000000300010700000000000000090000000000000071d0764e7b4cf2f380a249350fb150d1cf960d9a5b2e821d4e48c1632bef5205"},
	} {
		if got := hex.EncodeToString(c.frame); got != c.want {
			t.Errorf("EncodeFrame = %s, want %s", got, c.want)
		}
		if _, _, _, _, _, ok := DecodeFrame(c.frame); !ok {
			t.Errorf("DecodeFrame rejects its own golden frame %s", c.want)
		}
	}
}

// The arrival order of a pinned plan — what arrives at once, and the
// seeded order Flush releases the withheld rest in — captured before Flush
// hashed each envelope once instead of once per comparison.
func TestFaultPlaneScheduleGolden(t *testing.T) {
	fp := NewFaultPlane(FaultPlan{Seed: 99, Default: FaultSpec{Delay: 0.45, Reorder: 0.25, Duplicate: 0.1, Drop: 0.05}})
	var now, late []int
	for i := 0; i < 64; i++ {
		e := Envelope{From: "a", To: []string{"ssi", "pds-1", "pds-2", "ssi:3"}[i%4], Kind: []string{"tuple", "chunk", "partial"}[i%3], Payload: []byte{byte(i), 1, 2, 3}}
		for _, out := range fp.Transmit(e) {
			now = append(now, int(out.Payload[0]))
		}
	}
	fp.Flush(func(e Envelope) { late = append(late, int(e.Payload[0])) })
	wantNow := []int{0, 1, 4, 4, 13, 10, 18, 31, 19, 20, 33, 23, 37, 26, 27, 28, 42, 42, 43, 43, 32, 46, 46, 34, 47, 49, 38, 51, 53, 53, 54, 61, 61, 50}
	wantLate := []int{29, 24, 58, 52, 41, 59, 48, 62, 60, 39, 25, 8, 15, 63, 36, 11, 55, 17, 35, 45, 16, 56, 5, 30, 3, 40, 2, 6, 12, 21, 44, 7, 9, 57}
	if !reflect.DeepEqual(now, wantNow) {
		t.Errorf("immediate arrivals = %v\nwant %v", now, wantNow)
	}
	if !reflect.DeepEqual(late, wantLate) {
		t.Errorf("flush order = %v\nwant %v", late, wantLate)
	}
	if got, want := fp.Stats(), (FaultStats{Dropped: 2, Duplicated: 6, Delayed: 31, Reordered: 15}); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

// Steady-state allocation ceilings of the wire: a hash draw and a fault
// decision allocate nothing; a reliable transfer allocates its two frames
// (data and ack) and nothing per frame beyond them.
func TestWireAllocCeilings(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	pay := seqBytes(120, 3, 1)
	kind, from := []byte("tuple"), []byte("pds-0001")
	if got := testing.AllocsPerRun(200, func() { HashUniform(5, kind, from, pay) }); got > 0 {
		t.Errorf("HashUniform: %.1f allocs/op, ceiling 0", got)
	}

	// Drop, duplicate and reorder exercise every transmit branch that does
	// not grow the plane's own withheld list.
	n := New()
	n.SetObserver(obs.NewRegistry())
	fp := NewFaultPlane(FaultPlan{Seed: 3, Default: FaultSpec{Drop: 0.2, Duplicate: 0.2, Reorder: 0.2}})
	n.SetFaults(fp)
	e := Envelope{From: "pds-0001", To: "ssi", Kind: "tuple", Payload: pay}
	seq := byte(0)
	arrived := 0
	rcv := func(Envelope) { arrived++ }
	if got := testing.AllocsPerRun(500, func() {
		seq++
		e.Payload[0] = seq // a fresh draw per call
		n.Deliver(e, rcv)
	}); got > 0 {
		t.Errorf("Deliver through a faulty plane: %.2f allocs/op, ceiling 0", got)
	}
	if s := fp.Stats(); s.Dropped == 0 || s.Duplicated == 0 || s.Reordered == 0 || arrived == 0 {
		t.Fatalf("the plan did not exercise every branch: %+v, %d arrivals", s, arrived)
	}

	clean := New()
	l := NewLink(clean, Reliability{})
	delivered := 0
	deliver := func(Envelope) { delivered++ }
	if got := testing.AllocsPerRun(500, func() {
		if err := l.Transfer(e, deliver); err != nil {
			t.Fatal(err)
		}
	}); got > 2 {
		t.Errorf("Link.Transfer on a clean wire: %.2f allocs/op, ceiling 2 (the data and the ack frame)", got)
	}
	if delivered < 500 {
		t.Fatalf("delivered %d of 500+ transfers", delivered)
	}
}
