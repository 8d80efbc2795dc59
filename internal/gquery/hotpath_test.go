package gquery

import (
	"bytes"
	"encoding/hex"
	"strings"
	"sync"
	"testing"

	"pds/internal/netsim"
	"pds/internal/privcrypto"
	"pds/internal/race"
	"pds/internal/ssi"
)

func seqMaster() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i)
	}
	return key
}

// sealBody seals an already-built body the way every sender does.
func sealBody(kr *Keyring, body []byte) []byte {
	dst := beginSeal(make([]byte, 0, sealedLen(len(body))), len(body))
	return endSeal(kr, append(dst, body...), len(body))
}

// onlyRecord returns the sealed payload of a one-record frame.
func onlyRecord(t *testing.T, frame []byte) []byte {
	t.Helper()
	var recs [][]byte
	if err := eachRecord(frame, func(rec []byte) bool { recs = append(recs, rec); return true }); err != nil || len(recs) != 1 {
		t.Fatalf("frame of %d bytes: %d records, %v", len(frame), len(recs), err)
	}
	return recs[0]
}

// Sealed payloads captured while seal still copied its body and drew a
// one-shot privcrypto.MAC: u16 bodyLen | body | mac(32), bit for bit. A
// Keyring written as a literal must seal and open like a derived one.
func TestSealedPayloadGoldenVectors(t *testing.T) {
	derived, err := KeyringFrom(seqMaster())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := hex.EncodeToString(derived.MACKey), "2b50e1dcb4a90c1fe26750487cc1560befa2c90e5a7069f51d7ba202346a1747"; got != want {
		t.Fatalf("MACKey = %s, want %s", got, want)
	}
	literal := &Keyring{Det: derived.Det, NonDet: derived.NonDet, MACKey: derived.MACKey}
	for _, c := range []struct {
		body []byte
		want string
	}{
		{[]byte("ciphertext-bytes"), "1000636970686572746578742d6279746573df44f324d5860dad9e2f4af342f3abefa38ce655945258a99622f1cbb594ff31"},
		{nil, "000080cf0587ebe8d218fb7d5a0af13cca2ffe2ae8dde819a2aa1657df6fbe673f0f"},
	} {
		for _, kr := range []*Keyring{derived, literal, derived} {
			sealed := sealBody(kr, c.body)
			if got := hex.EncodeToString(sealed); got != c.want {
				t.Errorf("seal(%q) = %s, want %s", c.body, got, c.want)
			}
			if tag := privcrypto.MAC(kr.MACKey, c.body); !bytes.Equal(sealed[2+len(c.body):], tag) {
				t.Errorf("seal(%q): tag differs from the one-shot MAC", c.body)
			}
			body, err := open(kr, sealed)
			if err != nil || !bytes.Equal(body, c.body) {
				t.Errorf("open(seal(%q)) = %q, %v", c.body, body, err)
			}
			sealed[len(sealed)-1] ^= 1
			if _, err := open(kr, sealed); err == nil {
				t.Errorf("open accepts a flipped tag on %q", c.body)
			}
		}
	}
	// A tuple upload is one record of its PDS's frame, u32 recLen | the
	// same layout around a fresh non-deterministic ciphertext, sealed in
	// place into a frame sized exactly.
	tuple := tuplePlain{ID: 7, Group: "flu", Value: 42}
	pt := encodeTuplePlain(tuple)
	sized := make([]byte, 0, tupleRecordLen(2, tuple.Group))
	frame, err := sealTuple(sized, derived, []byte{3, 0}, tuple)
	if err != nil {
		t.Fatal(err)
	}
	if len(frame) != cap(sized) || &frame[0] != &sized[:1][0] {
		t.Fatalf("sealTuple: len %d, want the %d-byte frame filled in place", len(frame), cap(sized))
	}
	body, err := open(derived, onlyRecord(t, frame))
	if err != nil || len(body) != 2+len(pt)+privcrypto.Overhead {
		t.Fatalf("sealTuple: open = %d bytes, %v", len(body), err)
	}
	if got, err := derived.NonDet.Decrypt(body[2:]); err != nil || !bytes.Equal(got, pt) || body[0] != 3 {
		t.Fatalf("sealTuple body does not decrypt to the tuple: %q, %v", got, err)
	}
	// A group longer than the stack buffer spills, and still round-trips;
	// a second record lands behind the first without moving it.
	long := tuplePlain{ID: 8, Group: strings.Repeat("hypertension-", 12), Value: -3, Fake: true}
	two, _ := sealTuple(append([]byte(nil), frame...), derived, nil, long)
	var recs [][]byte
	if err := eachRecord(two, func(rec []byte) bool { recs = append(recs, rec); return true }); err != nil || len(recs) != 2 ||
		!bytes.Equal(two[:len(frame)], frame) {
		t.Fatalf("two-record frame: %d records, %v", len(recs), err)
	}
	body, _ = open(derived, recs[1])
	if got, err := derived.NonDet.Decrypt(body); err != nil || !bytes.Equal(got, encodeTuplePlain(long)) {
		t.Fatalf("sealTuple of a %d-byte group: %v", len(long.Group), err)
	}
}

// Sealing allocates the payload that leaves, opening allocates nothing.
func TestSealOpenAllocCeilings(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	kr := mustKeyring(t)
	body := bytes.Repeat([]byte{0xAB}, 90)
	sealed := sealBody(kr, body)
	if got := testing.AllocsPerRun(200, func() { sealBody(kr, body) }); got > 1 {
		t.Errorf("seal: %.1f allocs/op, ceiling 1", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := open(kr, sealed); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("open: %.1f allocs/op, ceiling 0", got)
	}
	// The frame and the CTR stream; the tuple's plaintext stays on the stack.
	tuple := tuplePlain{ID: 7, Group: "flu", Value: 42}
	if got := testing.AllocsPerRun(200, func() { sealTuple(nil, kr, nil, tuple) }); got > 2 {
		t.Errorf("sealTuple: %.1f allocs/op, ceiling 2", got)
	}
}

// One Keyring hammered from many goroutines, then shared by a Workers=4
// fleet over a faulty wire: the keyed MAC state must never be shared
// between two goroutines (run under -race), and the fleet's answer must be
// the plain aggregate.
func TestKeyringSharedByFleet(t *testing.T) {
	derived := mustKeyring(t)
	kr := &Keyring{Det: derived.Det, NonDet: derived.NonDet, MACKey: derived.MACKey} // first use races to bind the key
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tuple := tuplePlain{ID: uint64(g*1000 + i), Group: testDomain[i%len(testDomain)], Value: int64(i)}
				pt := encodeTuplePlain(tuple)
				frame, err := sealTuple(nil, kr, nil, tuple)
				if err != nil {
					t.Error(err)
					return
				}
				ct, err := open(kr, frame[recordPrefix:])
				if err != nil {
					t.Errorf("goroutine %d: open: %v", g, err)
					return
				}
				if got, err := kr.NonDet.Decrypt(ct); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("goroutine %d: round trip failed: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	parts := makeParts(40, 4, testDomain, 21)
	plan := &netsim.FaultPlan{Seed: 5, Default: netsim.FaultSpec{Drop: 0.08, Duplicate: 0.08, Delay: 0.04, Reorder: 0.04}}
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	res, stats, err := New(WithWorkers(4), WithFaults(plan)).SecureAgg(net, srv, parts, kr, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, PlainResult(parts)) {
		t.Errorf("Workers=4 fleet result != plain result\n got %v\nwant %v", res, PlainResult(parts))
	}
	if stats.MACFailures != 0 || stats.Retransmits == 0 {
		t.Errorf("stats = %+v; want no MAC failure and some retransmits", stats)
	}
	net, srv = freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	nres, _, err := New(WithWorkers(4), WithFaults(plan)).Noise(net, srv, parts, kr, testDomain, 1, ControlledNoise, 9)
	if err != nil || !resultsEqual(nres, PlainResult(parts)) {
		t.Errorf("Workers=4 noise run: %v, result %v", err, nres)
	}
}
