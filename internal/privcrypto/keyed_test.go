package privcrypto

import (
	"bytes"
	"encoding/hex"
	"sync"
	"testing"

	"pds/internal/race"
)

func seqKey() []byte {
	key := make([]byte, KeySize)
	for i := range key {
		key[i] = byte(i)
	}
	return key
}

// The ciphertexts of the deterministic cipher and the tags of the keyed
// MAC, captured before the keyed-once rewrite: reusing a Reset HMAC state
// must not change one output bit.
func TestDetCipherAndKeyedMACGoldenVectors(t *testing.T) {
	det, err := NewDetCipher(seqKey())
	if err != nil {
		t.Fatal(err)
	}
	long := make([]byte, 40)
	for i := range long {
		long[i] = byte(200 - i)
	}
	for _, c := range []struct {
		pt   []byte
		want string
	}{
		{nil, "b4ddbd1247779c9a89b51644b60c56bdbd7f6c78a4f33c69afff093799898b3a8eefe0ca96d894bf26952198147f197f"},
		{[]byte("g07"), "fe0bb15e57e947657546c422f17f8812e077d9370e1abfc0c49e199af83f5fc233a579192e273bffaf7039b718b95aa0dfbe92"},
		{long, "c382b815f856991539c4b742d14ed80820b8ff40392b5e6323b767dfb61f4dfbd4b80f5be5048dea231df446ce0bb472599bd6192eec6c73e7a3c801c181586d8aabca0f9772eb1150d522ed72571aba38e34b027b988264"},
	} {
		// Twice: the second call runs on a pooled, Reset state.
		for round := 0; round < 2; round++ {
			ct, err := det.Encrypt(c.pt)
			if err != nil {
				t.Fatal(err)
			}
			if got := hex.EncodeToString(ct); got != c.want {
				t.Fatalf("DetCipher.Encrypt(%q) round %d = %s, want %s", c.pt, round, got, c.want)
			}
			framed, err := det.AppendEncrypt([]byte("hdr"), c.pt)
			if err != nil || !bytes.Equal(framed[3:], ct) || string(framed[:3]) != "hdr" {
				t.Fatalf("AppendEncrypt(%q) = %x, %v; want hdr + %x", c.pt, framed, err, ct)
			}
			pt, err := det.Decrypt(ct)
			if err != nil || !bytes.Equal(pt, c.pt) {
				t.Fatalf("Decrypt round trip of %q = %q, %v", c.pt, pt, err)
			}
		}
	}

	const macWant = "3b57d42a96c7d6bbd3a8d21ccf7a9db575e32e1872b62c0a368840b47d8b38ef"
	if got := hex.EncodeToString(MAC(seqKey(), []byte("msg"))); got != macWant {
		t.Fatalf("MAC = %s, want %s", got, macWant)
	}
	km := NewKeyedMAC(seqKey())
	for round := 0; round < 3; round++ {
		tag := km.Sum([]byte{0xAA}, []byte("msg"))
		if tag[0] != 0xAA || hex.EncodeToString(tag[1:]) != macWant {
			t.Fatalf("KeyedMAC.Sum round %d = %x", round, tag)
		}
		if !km.Verify([]byte("msg"), tag[1:]) || km.Verify([]byte("msh"), tag[1:]) || km.Verify([]byte("msg"), tag[:32]) {
			t.Fatalf("KeyedMAC.Verify round %d accepts or rejects wrongly", round)
		}
	}
}

// Steady-state allocation ceilings: a ciphertext or plaintext buffer and
// the CTR stream leave the call; no HMAC state, key block or tag does.
func TestSymmetricAllocCeilings(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	nd, _ := NewNonDetCipher(seqKey())
	det, _ := NewDetCipher(seqKey())
	km := NewKeyedMAC(seqKey())
	pt := []byte("0123456789abcdef0123456789")
	ndCT, _ := nd.Encrypt(pt)
	detCT, _ := det.Encrypt(pt)
	tag := km.Sum(nil, pt)
	buf := make([]byte, 0, 64)
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"NonDetCipher.Encrypt", 2, func() { nd.Encrypt(pt) }},
		{"NonDetCipher.Decrypt", 2, func() { nd.Decrypt(ndCT) }},
		{"DetCipher.Encrypt", 2, func() { det.Encrypt(pt) }},
		{"DetCipher.Decrypt", 2, func() { det.Decrypt(detCT) }},
		{"KeyedMAC.Sum", 0, func() { km.Sum(buf, pt) }},
		{"KeyedMAC.Verify", 0, func() { km.Verify(pt, tag) }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %.1f allocs/op, ceiling %.0f", c.name, got, c.max)
		} else {
			t.Logf("%s: %.1f allocs/op", c.name, got)
		}
	}
}

// One cipher pair and one keyed MAC shared by many goroutines, as a
// Workers>1 token fleet shares its keyring: every goroutine must get its
// own HMAC state (run under -race).
func TestKeyedStateSharedAcrossGoroutines(t *testing.T) {
	nd, _ := NewNonDetCipher(seqKey())
	det, _ := NewDetCipher(seqKey())
	km := NewKeyedMAC(seqKey())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pt := bytes.Repeat([]byte{byte(g), byte(i)}, 1+i%20)
				ct, err := nd.Encrypt(pt)
				if err != nil {
					t.Error(err)
					return
				}
				if got, err := nd.Decrypt(ct); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("goroutine %d: NonDet round trip failed: %v", g, err)
					return
				}
				d1, _ := det.Encrypt(pt)
				d2, _ := det.Encrypt(pt)
				if !bytes.Equal(d1, d2) {
					t.Errorf("goroutine %d: DetCipher not deterministic under concurrency", g)
					return
				}
				if got, err := det.Decrypt(d1); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("goroutine %d: Det round trip failed: %v", g, err)
					return
				}
				if !bytes.Equal(km.Sum(nil, pt), MAC(seqKey(), pt)) || !km.Verify(pt, MAC(seqKey(), pt)) {
					t.Errorf("goroutine %d: keyed MAC disagrees with the one-shot MAC", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
