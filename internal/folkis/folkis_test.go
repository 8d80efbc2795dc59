package folkis

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"pds/internal/privcrypto"
)

func TestConfigValidation(t *testing.T) {
	if _, err := NewSim(Config{Nodes: 1, Locations: 3}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("1 node err = %v", err)
	}
	if _, err := NewSim(Config{Nodes: 3, Locations: 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("0 locations err = %v", err)
	}
}

func TestSendValidation(t *testing.T) {
	s, _ := NewSim(Config{Nodes: 3, Locations: 2, Routing: Epidemic, Seed: 1})
	if _, err := s.Send("ghost", "n0", nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown sender err = %v", err)
	}
	if _, err := s.Send("n0", "ghost", nil); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown recipient err = %v", err)
	}
}

func TestEpidemicDelivers(t *testing.T) {
	s, err := NewSim(Config{Nodes: 20, Locations: 5, Routing: Epidemic, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 10; i++ {
		id, err := s.Send("n0", fmt.Sprintf("n%d", 10+i), []byte("hello"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s.Run(200)
	for _, id := range ids {
		if _, ok := s.Delivered(id); !ok {
			t.Errorf("message %d undelivered after 200 steps", id)
		}
	}
	st := s.Stats()
	if st.DeliveryRatio() != 1 {
		t.Errorf("delivery ratio = %f", st.DeliveryRatio())
	}
	if st.Copies == 0 || st.Encounters == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEpidemicBeatsDirect(t *testing.T) {
	run := func(r Routing) (float64, int) {
		s, _ := NewSim(Config{Nodes: 30, Locations: 15, Routing: r, Seed: 3})
		for i := 0; i < 20; i++ {
			s.Send(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", 29-i), nil)
		}
		s.Run(60)
		p50, _ := s.Percentile(50)
		return s.Stats().DeliveryRatio(), p50
	}
	dRatio, _ := run(Direct)
	eRatio, _ := run(Epidemic)
	if eRatio < dRatio {
		t.Errorf("epidemic ratio %.2f < direct %.2f", eRatio, dRatio)
	}
	if eRatio < 0.9 {
		t.Errorf("epidemic ratio only %.2f after 60 steps", eRatio)
	}
}

func TestDirectOnlySourceDelivers(t *testing.T) {
	s, _ := NewSim(Config{Nodes: 10, Locations: 2, Routing: Direct, Seed: 4})
	s.Send("n0", "n1", nil)
	s.Run(100)
	// Under direct routing no copies are ever made.
	if s.Stats().Copies != 0 {
		t.Errorf("direct routing made %d copies", s.Stats().Copies)
	}
}

func TestBoundedBuffersDrop(t *testing.T) {
	s, _ := NewSim(Config{Nodes: 4, Locations: 1, BufferCap: 2, Routing: Epidemic, Seed: 5})
	// n0 queues more than its buffer holds.
	for i := 0; i < 6; i++ {
		if _, err := s.Send("n0", "n1", nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Drops == 0 {
		t.Error("no drops despite tiny buffer")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	s, _ := NewSim(Config{Nodes: 12, Locations: 3, Routing: Epidemic, Seed: 6})
	for i := 0; i < 12; i += 2 {
		s.Send(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1), nil)
	}
	if _, ok := s.Percentile(50); ok {
		t.Error("percentile before any delivery")
	}
	s.Run(100)
	p50, ok := s.Percentile(50)
	if !ok {
		t.Fatal("no deliveries")
	}
	p95, _ := s.Percentile(95)
	if p50 > p95 {
		t.Errorf("p50 %d > p95 %d", p50, p95)
	}
	ls := s.Latencies()
	for i := 1; i < len(ls); i++ {
		if ls[i] < ls[i-1] {
			t.Error("latencies not sorted")
		}
	}
}

// The Folk-IS privacy principle: carriers only ever hold ciphertext.
func TestCarriersSeeOnlyCiphertext(t *testing.T) {
	s, _ := NewSim(Config{Nodes: 8, Locations: 2, Routing: Epidemic, Seed: 7})
	recipientKey := make([]byte, 32)
	cipher, err := privcrypto.NewNonDetCipher(recipientKey)
	if err != nil {
		t.Fatal(err)
	}
	secret := []byte("my medical record: diabetes")
	ct, err := cipher.Encrypt(secret)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Send("n0", "n7", ct); err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	// Inspect every intermediate buffer: the plaintext must never appear.
	for _, id := range s.Nodes() {
		views, err := s.BufferOf(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range views {
			if bytes.Contains(v.Payload, secret) {
				t.Fatalf("node %s carries plaintext", id)
			}
		}
	}
	// The recipient decrypts what arrived.
	pt, err := cipher.Decrypt(ct)
	if err != nil || !bytes.Equal(pt, secret) {
		t.Errorf("recipient decryption = %q, %v", pt, err)
	}
}

func TestAntiEntropyPurgesDelivered(t *testing.T) {
	s, _ := NewSim(Config{Nodes: 6, Locations: 1, Routing: Epidemic, Seed: 8})
	id, _ := s.Send("n0", "n1", nil)
	s.Run(30)
	if _, ok := s.Delivered(id); !ok {
		t.Fatal("not delivered in a single shared location")
	}
	// After enough anti-entropy rounds, no node should still carry it.
	s.Run(30)
	carriers := 0
	for _, nid := range s.Nodes() {
		views, _ := s.BufferOf(nid)
		for _, v := range views {
			if v.ID == id {
				carriers++
			}
		}
	}
	if carriers != 0 {
		t.Errorf("%d stale copies after delivery", carriers)
	}
}

func TestRoutingString(t *testing.T) {
	if Direct.String() != "direct" || Epidemic.String() != "epidemic" {
		t.Error("routing strings wrong")
	}
	if Routing(9).String() != "Routing(9)" {
		t.Error("unknown routing string wrong")
	}
}

// TestSameSeedSameRun pins determinism: the seed alone fixes every
// movement and every encounter, so two simulations built from the same
// config and fed the same messages report identical counters and
// latencies. Encounters mutate shared buffers and anti-entropy state, so
// visiting locations in any run-dependent order would change the copies,
// drops and delivery latencies.
func TestSameSeedSameRun(t *testing.T) {
	run := func() (Stats, []int) {
		s, err := NewSim(Config{Nodes: 50, Locations: 25, BufferCap: 16, Routing: Epidemic, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			if _, err := s.Send(fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", (i*7+3)%50), nil); err != nil {
				t.Fatal(err)
			}
		}
		s.Run(120)
		return s.Stats(), s.Latencies()
	}
	wantStats, wantLat := run()
	for i := 0; i < 4; i++ {
		gotStats, gotLat := run()
		if gotStats != wantStats {
			t.Fatalf("run %d: stats %+v, first run %+v", i+2, gotStats, wantStats)
		}
		if fmt.Sprint(gotLat) != fmt.Sprint(wantLat) {
			t.Fatalf("run %d: latencies %v, first run %v", i+2, gotLat, wantLat)
		}
	}
}
