package smc

import (
	"encoding/binary"
	"errors"
	"math/big"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/privcrypto"
	"pds/internal/transport"
)

// cleanSum runs the ring on a fresh in-process wire without faults.
func cleanSum(values []int64, modulus int64, rng *rand.Rand) (int64, *Trace, error) {
	return SecureSum(netsim.New(), values, modulus, rng, nil)
}

func TestSecureSumCorrect(t *testing.T) {
	vals := []int64{10, 20, 30, 40}
	sum, tr, err := cleanSum(vals, 1000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 100 {
		t.Errorf("sum = %d, want 100", sum)
	}
	// One hop per party: P0→P1→…→Pn-1→P0, 8 bytes each.
	if tr.Messages != len(vals) || tr.Bytes != 8*len(vals) {
		t.Errorf("trace = %d msgs / %d bytes, want %d / %d (one per ring hop)", tr.Messages, tr.Bytes, len(vals), 8*len(vals))
	}
	if tr.Rel != (netsim.RelStats{}) {
		t.Errorf("clean run accrued reliability cost: %+v", tr.Rel)
	}
}

func TestSecureSumModular(t *testing.T) {
	sum, _, err := cleanSum([]int64{60, 60, 60}, 100, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 80 {
		t.Errorf("sum mod 100 = %d, want 80", sum)
	}
}

func TestSecureSumValidation(t *testing.T) {
	if _, _, err := cleanSum([]int64{1, 2}, 10, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("2 parties err = %v", err)
	}
	if _, _, err := cleanSum([]int64{1, 2, 3}, 0, nil); !errors.Is(err, ErrBadModulus) {
		t.Errorf("modulus 0 err = %v", err)
	}
	if _, _, err := cleanSum([]int64{1, 2, 30}, 10, nil); !errors.Is(err, ErrValueRange) {
		t.Errorf("range err = %v", err)
	}
	if _, _, err := cleanSum([]int64{1, -1, 3}, 10, nil); !errors.Is(err, ErrValueRange) {
		t.Errorf("negative err = %v", err)
	}
}

// The security property of the ring protocol: the message each
// intermediate party sees is uniformly distributed regardless of the
// inputs, because it is masked by the initiator's fresh random R. The
// observation is read off the wire itself, as an eavesdropper would.
func TestSecureSumIntermediatesMasked(t *testing.T) {
	const m = 16
	const trials = 4000
	buckets := make([]int, m)
	for s := 0; s < trials; s++ {
		net := netsim.New()
		var first []netsim.Envelope
		net.Tap(func(e netsim.Envelope) { first = append(first, e) })
		if _, _, err := SecureSum(net, []int64{7, 7, 7}, m, rand.New(rand.NewSource(int64(s))), nil); err != nil {
			t.Fatal(err)
		}
		// Party 1's observation of the masked value: the first hop.
		e := first[0]
		if e.From != "party-0" || e.To != "party-1" || e.Kind != "ring" {
			t.Fatalf("first hop %s→%s %q, want party-0→party-1 ring", e.From, e.To, e.Kind)
		}
		buckets[binary.LittleEndian.Uint64(e.Payload)]++
	}
	want := trials / m
	for v, n := range buckets {
		if n < want/2 || n > want*2 {
			t.Errorf("masked value %d seen %d times, want ~%d (not uniform)", v, n, want)
		}
	}
}

func TestQuickSecureSum(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) < 3 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		const m = int64(1 << 40)
		vals := make([]int64, len(raw))
		var want int64
		for i, v := range raw {
			vals[i] = int64(v)
			want += int64(v)
		}
		sum, _, err := cleanSum(vals, m, rand.New(rand.NewSource(seed)))
		return err == nil && sum == want%m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSecureSumSegmented(t *testing.T) {
	vals := []int64{100, 200, 300, 400, 500}
	sum, tr, err := SecureSumSegmented(netsim.New(), vals, 1<<30, 4, rand.New(rand.NewSource(3)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum != 1500 {
		t.Errorf("segmented sum = %d, want 1500", sum)
	}
	if tr.Messages != 4*len(vals) {
		t.Errorf("messages = %d, want %d", tr.Messages, 4*len(vals))
	}
}

// Each segment's walk starts one party later, and the hops name the
// parties they really connect.
func TestSecureSumSegmentedRotatesRing(t *testing.T) {
	net := netsim.New()
	var hops []string
	net.Tap(func(e netsim.Envelope) { hops = append(hops, e.From+">"+e.To) })
	if _, _, err := SecureSumSegmented(net, []int64{1, 2, 3}, 100, 2, rand.New(rand.NewSource(1)), nil); err != nil {
		t.Fatal(err)
	}
	want := "party-0>party-1 party-1>party-2 party-2>party-0 party-1>party-2 party-2>party-0 party-0>party-1"
	if got := strings.Join(hops, " "); got != want {
		t.Errorf("hops = %s\nwant   %s", got, want)
	}
}

// An armed ARQ link on a wire that never faults yields the plain ring's
// sum under the same mask: the link adds acks, never a different answer.
func TestSecureSumOverNetworkCleanMatchesSecureSum(t *testing.T) {
	values := []int64{10, 20, 30, 40, 5}
	const mod = int64(1000)
	want, plain, err := cleanSum(values, mod, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	got, tr, err := SecureSum(netsim.New(), values, mod, rand.New(rand.NewSource(1)), &netsim.FaultPlan{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("armed sum = %d, want %d", got, want)
	}
	if tr.Rel.Transfers != len(values) || tr.Rel.Retransmits != 0 || tr.Messages <= plain.Messages {
		t.Errorf("armed faultless run: %d msgs, %+v; want %d transfers, no retransmits, more than %d msgs",
			tr.Messages, tr.Rel, len(values), plain.Messages)
	}
}

func TestSecureSumOverNetworkValidation(t *testing.T) {
	plan := &netsim.FaultPlan{Seed: 1}
	for _, segments := range []int{1, 2} {
		if _, _, err := SecureSumSegmented(netsim.New(), []int64{1, 2}, 10, segments, nil, plan); !errors.Is(err, ErrTooFewParties) {
			t.Errorf("2 parties: err = %v", err)
		}
		if _, _, err := SecureSumSegmented(netsim.New(), []int64{1, 2, 3}, 0, segments, nil, plan); !errors.Is(err, ErrBadModulus) {
			t.Errorf("bad modulus: err = %v", err)
		}
		if _, _, err := SecureSumSegmented(netsim.New(), []int64{1, 2, 99}, 10, segments, nil, plan); !errors.Is(err, ErrValueRange) {
			t.Errorf("out of range: err = %v", err)
		}
	}
	if _, _, err := SecureSumSegmented(netsim.New(), []int64{1, 2, 3}, 100, 0, nil, nil); err == nil {
		t.Error("segments=0 accepted")
	}
}

func TestSecureSumOverNetworkExactUnderDrops(t *testing.T) {
	values := []int64{7, 13, 21, 34, 55, 89}
	const mod = int64(10000)
	want := int64(0)
	for _, v := range values {
		want += v
	}
	plan := &netsim.FaultPlan{Seed: 77, Default: netsim.FaultSpec{Drop: 0.2, Duplicate: 0.1}}
	for _, segments := range []int{1, 3} {
		got, tr, err := SecureSumSegmented(netsim.New(), values, mod, segments, rand.New(rand.NewSource(3)), plan)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%d segments: sum under faults = %d, want %d", segments, got, want)
		}
		if tr.Messages <= segments*len(values) {
			t.Errorf("%d segments: faulty wire cost %d messages, want > %d (frames + acks + retries)",
				segments, tr.Messages, segments*len(values))
		}
		if tr.Rel.Transfers != segments*len(values) {
			t.Errorf("%d segments: transfers = %d, want %d", segments, tr.Rel.Transfers, segments*len(values))
		}
	}
}

func TestSecureSumOverNetworkRetriesExhaustedTyped(t *testing.T) {
	plan := &netsim.FaultPlan{Seed: 5, Default: netsim.FaultSpec{Drop: 1}}
	_, _, err := SecureSum(netsim.New(), []int64{1, 2, 3}, 100, rand.New(rand.NewSource(4)), plan)
	if !errors.Is(err, netsim.ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
}

func TestSecureSumOverNetworkRestoresFaultPlane(t *testing.T) {
	// The run installs a fault plane on the caller's Network for its own
	// duration only; both the success and the retries-exhausted path must
	// restore the pre-run plane (here: none).
	net := netsim.New()
	plan := &netsim.FaultPlan{Seed: 78, Default: netsim.FaultSpec{Drop: 0.2}}
	if _, _, err := SecureSum(net, []int64{1, 2, 3}, 100, rand.New(rand.NewSource(5)), plan); err != nil {
		t.Fatal(err)
	}
	if net.Faults() != nil {
		t.Error("successful run left its fault plane armed")
	}
	dead := &netsim.FaultPlan{Seed: 79, Default: netsim.FaultSpec{Drop: 1}}
	if _, _, err := SecureSum(net, []int64{1, 2, 3}, 100, rand.New(rand.NewSource(6)), dead); err == nil {
		t.Fatal("drop=1 run unexpectedly succeeded")
	}
	if net.Faults() != nil {
		t.Error("failed run left its fault plane armed")
	}
}

// The ring counts its run in a run-local registry merged into the wire's
// observer: on a lossy wire its Trace equals the netsim_* counters the
// observer ends up with and what a tap on the wire saw, on the success
// and on the retries-exhausted path, and the observer is back in place.
func TestSecureSumTraceIsTheRunRegistry(t *testing.T) {
	net := netsim.New()
	var tapped netsim.Stats
	net.Tap(func(e netsim.Envelope) {
		tapped.Messages, tapped.Bytes = tapped.Messages+1, tapped.Bytes+int64(len(e.Payload))
	})
	values := []int64{7, 13, 21, 34, 55, 89}
	for _, tc := range []struct {
		plan netsim.FaultPlan
		fail bool
	}{
		{netsim.FaultPlan{Seed: 77, Default: netsim.FaultSpec{Drop: 0.2, Duplicate: 0.1}}, false},
		{netsim.FaultPlan{Seed: 79, Default: netsim.FaultSpec{Drop: 1}}, true},
	} {
		reg := obs.NewRegistry()
		net.SetObserver(reg)
		tapped = netsim.Stats{}
		_, tr, err := SecureSumSegmented(net, values, 10000, 3, rand.New(rand.NewSource(3)), &tc.plan)
		if (err != nil) != tc.fail {
			t.Fatalf("plan %+v: err = %v", tc.plan, err)
		}
		if net.Observer() != reg {
			t.Fatal("the run did not restore the wire's observer")
		}
		rel := netsim.RelStats{
			Transfers:   int(reg.CounterValue(netsim.MetricRelTransfers)),
			Retransmits: int(reg.CounterValue(netsim.MetricRelRetrans)),
			Acks:        int(reg.CounterValue(netsim.MetricRelAcks)),
			TagFailures: int(reg.CounterValue(netsim.MetricRelTagFail)),
			Backoff:     time.Duration(reg.CounterValue(netsim.MetricRelBackoffNS)),
		}
		if tr.Rel != rel || rel.Retransmits == 0 {
			t.Errorf("plan %+v: Trace.Rel %+v, registry %+v", tc.plan, tr.Rel, rel)
		}
		msgs, bytes := reg.CounterValue(netsim.MetricMessages), reg.CounterValue(netsim.MetricBytes)
		if int64(tr.Messages) != tapped.Messages || int64(tr.Bytes) != tapped.Bytes || msgs != tapped.Messages || bytes != tapped.Bytes {
			t.Errorf("plan %+v: Trace %d msgs / %d B, registry %d / %d, tap %+v", tc.plan, tr.Messages, tr.Bytes, msgs, bytes, tapped)
		}
	}
}

// tappedWire is a wire a test can watch: both substrates take taps.
type tappedWire interface {
	transport.Transport
	Tap(func(netsim.Envelope))
}

// tcpWire dials a fresh switch on the loopback interface.
func tcpWire(t *testing.T) tappedWire {
	t.Helper()
	sw, err := transport.NewSwitch()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sw.Close() })
	c, err := transport.Dial(sw.Addr(), "toolkit")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// Every toolkit protocol runs on the wire it is given and reads its Trace
// off its run's registry: on the simulator and on TCP, each run's Trace
// equals the netsim_* counters it leaves in the wire's observer and what
// a tap on the wire saw, and the observer is back in place afterwards.
func TestToolkitTraceIsTheRunRegistry(t *testing.T) {
	sk, key := scalarTestKey(t), rsaTestKey(t)
	sets := [][]int64{{1, 5, 9}, {5, 7}, {1, 7, 11}}
	var txs []Transaction
	for i := 0; i < 12; i++ {
		txs = append(txs, Transaction{1, 2, int64(3 + i%2)})
	}
	points := [][][]int64{{{0, 0}, {9, 9}}, {{1, 0}, {10, 9}}, {{0, 1}, {9, 10}}}
	protocols := []struct {
		name string
		run  func(w transport.Transport) (*Trace, error)
	}{
		{"secure-sum", func(w transport.Transport) (*Trace, error) {
			_, tr, err := SecureSum(w, []int64{3, 1, 4, 1}, 100, rand.New(rand.NewSource(1)), nil)
			return tr, err
		}},
		{"set-union", func(w transport.Transport) (*Trace, error) {
			_, tr, err := SecureSetUnion(w, sets)
			return tr, err
		}},
		{"intersection-size", func(w transport.Transport) (*Trace, error) {
			_, tr, err := SecureIntersectionSize(w, sets)
			return tr, err
		}},
		{"scalar-product", func(w transport.Transport) (*Trace, error) {
			_, tr, err := ScalarProduct(w, []int64{1, 2, 3}, []int64{4, 5, 6}, sk)
			return tr, err
		}},
		{"millionaire", func(w transport.Transport) (*Trace, error) {
			_, tr, err := Millionaire(w, 3, 2, 4, key)
			return tr, err
		}},
		{"association-rules", func(w transport.Transport) (*Trace, error) {
			_, tr, err := MineAssociationRules(w, splitTransactions(txs, 3), 0.5, 0.8, rand.New(rand.NewSource(2)))
			return tr, err
		}},
		{"k-means", func(w transport.Transport) (*Trace, error) {
			_, _, tr, err := KMeans(w, points, 2, 2, rand.New(rand.NewSource(3)))
			return tr, err
		}},
	}
	wires := []struct {
		name string
		dial func(t *testing.T) tappedWire
	}{
		{"netsim", func(*testing.T) tappedWire { return netsim.New() }},
		{"tcp", tcpWire},
	}
	for _, wire := range wires {
		w := wire.dial(t)
		var tapped netsim.Stats
		w.Tap(func(e netsim.Envelope) {
			tapped.Messages, tapped.Bytes = tapped.Messages+1, tapped.Bytes+int64(len(e.Payload))
		})
		for _, p := range protocols {
			reg := obs.NewRegistry()
			w.SetObserver(reg)
			tapped = netsim.Stats{}
			tr, err := p.run(w)
			if err != nil {
				t.Fatalf("%s on %s: %v", p.name, wire.name, err)
			}
			if w.Observer() != reg {
				t.Fatalf("%s on %s did not restore the wire's observer", p.name, wire.name)
			}
			msgs, bytes := reg.CounterValue(netsim.MetricMessages), reg.CounterValue(netsim.MetricBytes)
			if tr.Messages == 0 || int64(tr.Messages) != msgs || int64(tr.Bytes) != bytes || msgs != tapped.Messages || bytes != tapped.Bytes {
				t.Errorf("%s on %s: Trace %d msgs / %d B, registry %d / %d, tap %+v",
					p.name, wire.name, tr.Messages, tr.Bytes, msgs, bytes, tapped)
			}
		}
	}
}

// A tap on the set union's wire never sees an item in the clear: every
// hop carries a ciphertext, and the last layer comes off at the last
// party, not on the wire.
func TestSecureSetUnionWireCarriesNoPlaintext(t *testing.T) {
	sets := [][]int64{{0, 1, 5, 9}, {5, 7}, {1, 7, 11}}
	plain := map[string]bool{}
	for _, set := range sets {
		for _, x := range set {
			plain[string(EncodeItem(x).Bytes())] = true
		}
	}
	net := netsim.New()
	seen := 0
	net.Tap(func(e netsim.Envelope) {
		seen++
		if plain[string(e.Payload)] {
			t.Errorf("%s %s→%s carries an item in the clear: %x", e.Kind, e.From, e.To, e.Payload)
		}
	})
	union, tr, err := SecureSetUnion(net, sets)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(union, []int64{0, 1, 5, 7, 9, 11}) || seen == 0 || seen != tr.Messages {
		t.Errorf("union %v over %d envelopes, Trace %d", union, seen, tr.Messages)
	}
}

// A tap on the scalar product's wire sees only ciphertexts, all at the
// key's fixed width: one per element of a, then the blinded aggregate.
func TestScalarProductWireCarriesOnlyCiphertexts(t *testing.T) {
	sk := scalarTestKey(t)
	width := sk.Public().CipherLen()
	net := netsim.New()
	var widths []int
	net.Tap(func(e netsim.Envelope) { widths = append(widths, len(e.Payload)) })
	a := []int64{0, 7, 1, 255}
	dot, tr, err := ScalarProduct(net, a, []int64{3, 0, 2, 1}, sk)
	if err != nil {
		t.Fatal(err)
	}
	if dot != 257 || len(widths) != len(a)+1 || tr.Bytes != (len(a)+1)*width {
		t.Fatalf("dot %d over payload widths %v, Trace %+v; want 257 over %d × %d B", dot, widths, tr, len(a)+1, width)
	}
	for i, n := range widths {
		if n != width {
			t.Errorf("envelope %d carries %d B, want the %d-B ciphertext width", i, n, width)
		}
	}
}

// An unobserved ring opens no spans, so its frames carry no trace id and
// a seeded lossy run replays exactly, however many registries the process
// mints in between.
func TestSecureSumUnobservedLossyRunReplays(t *testing.T) {
	plan := &netsim.FaultPlan{Seed: 18, Default: netsim.FaultSpec{Drop: 0.2}}
	run := func() Trace {
		_, tr, err := SecureSum(netsim.New(), []int64{3, 10, 17, 24, 31, 38, 45, 52}, 1<<30, rand.New(rand.NewSource(18)), plan)
		if err != nil {
			t.Fatal(err)
		}
		return *tr
	}
	first := run()
	obs.NewRegistry()
	if second := run(); second != first || first.Rel.Retransmits == 0 {
		t.Errorf("seeded lossy ring: %+v, then %+v", first, second)
	}
}

// TestSecureSumOverNetworkRingTrace: with an observer attached, the ring protocol
// records one ring-hop span per hop, each causally parented under the
// previous hop (through the transfer span when the reliable link is
// armed) — the exported trace shows the ring as one chain.
func TestSecureSumOverNetworkRingTrace(t *testing.T) {
	net := netsim.New()
	reg := obs.NewRegistry()
	net.SetObserver(reg)
	values := []int64{5, 7, 11, 13}
	mod := int64(1 << 30)
	plan := &netsim.FaultPlan{Seed: 9, Default: netsim.FaultSpec{Drop: 0.1}}
	got, _, err := SecureSum(net, values, mod, rand.New(rand.NewSource(4)), plan)
	if err != nil {
		t.Fatal(err)
	}
	if got != 36 {
		t.Fatalf("sum = %d, want 36", got)
	}
	spans := reg.Snapshot().Spans
	byID := map[int]obs.SpanRecord{}
	var ringRoot obs.SpanRecord
	var hops []obs.SpanRecord
	for _, sp := range spans {
		byID[sp.ID] = sp
		switch sp.Name {
		case "smc/secure-sum-ring":
			ringRoot = sp
		case "ring-hop":
			hops = append(hops, sp)
		}
	}
	if ringRoot.ID == 0 {
		t.Fatal("no ring root span")
	}
	// n parties -> n hops (including the closing hop back to party 0).
	if len(hops) != len(values) {
		t.Fatalf("ring-hop spans = %d, want %d", len(hops), len(values))
	}
	// Every hop's ancestry must reach the ring root, and hop depths must
	// strictly increase: each hop hangs under its predecessor.
	depth := func(sp obs.SpanRecord) int {
		d := 0
		for sp.Parent != 0 {
			sp = byID[sp.Parent]
			d++
		}
		return d
	}
	seen := map[int]bool{}
	for _, h := range hops {
		root := h
		for root.Parent != 0 {
			root = byID[root.Parent]
		}
		if root.ID != ringRoot.ID {
			t.Errorf("hop %d not rooted at the ring span", h.ID)
		}
		d := depth(h)
		if seen[d] {
			t.Errorf("two hops at depth %d — ring did not chain", d)
		}
		seen[d] = true
	}
}

func TestCommutativeCipher(t *testing.T) {
	a, err := NewCommutativeCipher(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCommutativeCipher(nil)
	if err != nil {
		t.Fatal(err)
	}
	x := EncodeItem(123456)
	ab, _ := a.Encrypt(x)
	ab, _ = b.Encrypt(ab)
	ba, _ := b.Encrypt(x)
	ba, _ = a.Encrypt(ba)
	if ab.Cmp(ba) != 0 {
		t.Error("encryption not commutative")
	}
	// Peel in the opposite order.
	y, _ := a.Decrypt(ab)
	y, _ = b.Decrypt(y)
	if DecodeItem(y) != 123456 {
		t.Errorf("round trip = %d", DecodeItem(y))
	}
	if _, err := a.Encrypt(big.NewInt(0)); !errors.Is(err, ErrNotInGroup) {
		t.Errorf("zero element err = %v", err)
	}
	if _, err := a.Decrypt(new(big.Int).Add(groupPrime(), big.NewInt(1))); !errors.Is(err, ErrNotInGroup) {
		t.Errorf("oversize element err = %v", err)
	}
}

func TestSecureSetUnion(t *testing.T) {
	sets := [][]int64{
		{1, 5, 9},
		{5, 7},
		{1, 7, 11},
	}
	union, tr, err := SecureSetUnion(netsim.New(), sets)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 5, 7, 9, 11}
	if len(union) != len(want) {
		t.Fatalf("union = %v, want %v", union, want)
	}
	for i := range want {
		if union[i] != want[i] {
			t.Errorf("union = %v, want %v", union, want)
		}
	}
	if tr.Messages == 0 {
		t.Error("no messages traced")
	}
	if _, _, err := SecureSetUnion(netsim.New(), [][]int64{{1}, {2}}); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("2 parties err = %v", err)
	}
}

func TestSecureSetUnionWithDuplicatesAcrossParties(t *testing.T) {
	sets := [][]int64{{3, 3, 4}, {3}, {4}}
	union, _, err := SecureSetUnion(netsim.New(), sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) != 2 || union[0] != 3 || union[1] != 4 {
		t.Errorf("union = %v, want [3 4]", union)
	}
}

func TestSecureIntersectionSize(t *testing.T) {
	sets := [][]int64{
		{1, 2, 3, 4},
		{2, 3, 4, 5},
		{3, 4, 5, 6},
	}
	size, _, err := SecureIntersectionSize(netsim.New(), sets)
	if err != nil {
		t.Fatal(err)
	}
	if size != 2 { // {3,4}
		t.Errorf("intersection size = %d, want 2", size)
	}
	// Empty intersection.
	size, _, err = SecureIntersectionSize(netsim.New(), [][]int64{{1}, {2}, {3}})
	if err != nil || size != 0 {
		t.Errorf("disjoint size = %d, %v", size, err)
	}
	if _, _, err := SecureIntersectionSize(netsim.New(), [][]int64{{1}}); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("1 party err = %v", err)
	}
}

var scalarKey *privcrypto.PaillierPrivateKey

func scalarTestKey(t testing.TB) *privcrypto.PaillierPrivateKey {
	t.Helper()
	if scalarKey == nil {
		k, err := privcrypto.GeneratePaillier(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		scalarKey = k
	}
	return scalarKey
}

func TestScalarProduct(t *testing.T) {
	sk := scalarTestKey(t)
	got, tr, err := ScalarProduct(netsim.New(), []int64{1, 2, 3}, []int64{4, 5, 6}, sk)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("dot = %d, want 32", got)
	}
	if tr.Messages != 4 { // 3 ciphertexts out + 1 back
		t.Errorf("messages = %d, want 4", tr.Messages)
	}
	if _, _, err := ScalarProduct(netsim.New(), []int64{1}, []int64{1, 2}, sk); !errors.Is(err, ErrVectorLength) {
		t.Errorf("length err = %v", err)
	}
	if _, _, err := ScalarProduct(netsim.New(), nil, nil, sk); !errors.Is(err, ErrVectorLength) {
		t.Errorf("empty err = %v", err)
	}
	if _, _, err := ScalarProduct(netsim.New(), []int64{-1}, []int64{1}, sk); !errors.Is(err, ErrNegative) {
		t.Errorf("negative err = %v", err)
	}
}

func TestQuickScalarProduct(t *testing.T) {
	sk := scalarTestKey(t)
	f := func(a, b []uint8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		if n > 8 {
			n = 8
		}
		av := make([]int64, n)
		bv := make([]int64, n)
		var want int64
		for i := 0; i < n; i++ {
			av[i], bv[i] = int64(a[i]), int64(b[i])
			want += av[i] * bv[i]
		}
		got, _, err := ScalarProduct(netsim.New(), av, bv, sk)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

var millionaireKey *privcrypto.RSAKey

func rsaTestKey(t testing.TB) *privcrypto.RSAKey {
	t.Helper()
	if millionaireKey == nil {
		k, err := privcrypto.GenerateRSA(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		millionaireKey = k
	}
	return millionaireKey
}

func TestMillionaireExhaustive(t *testing.T) {
	key := rsaTestKey(t)
	const domain = 6
	for i := int64(1); i <= domain; i++ {
		for j := int64(1); j <= domain; j++ {
			got, _, err := Millionaire(netsim.New(), i, j, domain, key)
			if err != nil {
				t.Fatalf("i=%d j=%d: %v", i, j, err)
			}
			if got != (i >= j) {
				t.Errorf("Millionaire(netsim.New(), %d, %d) = %v, want %v", i, j, got, i >= j)
			}
		}
	}
}

func TestMillionaireValidation(t *testing.T) {
	key := rsaTestKey(t)
	for _, c := range [][3]int64{{0, 1, 5}, {1, 0, 5}, {6, 1, 5}, {1, 6, 5}, {1, 1, 0}} {
		if _, _, err := Millionaire(netsim.New(), c[0], c[1], c[2], key); err == nil {
			t.Errorf("inputs %v accepted", c)
		}
	}
}

func TestMillionaireCostGrowsWithDomain(t *testing.T) {
	// The tutorial's point: Yao'82 cost is proportional to the domain.
	key := rsaTestKey(t)
	_, tr4, err := Millionaire(netsim.New(), 2, 2, 4, key)
	if err != nil {
		t.Fatal(err)
	}
	_, tr16, err := Millionaire(netsim.New(), 2, 2, 16, key)
	if err != nil {
		t.Fatal(err)
	}
	if tr16.Messages <= tr4.Messages {
		t.Errorf("messages: domain 16 = %d, domain 4 = %d; want growth", tr16.Messages, tr4.Messages)
	}
}
