package privcrypto

import (
	"bytes"
	"encoding/hex"
	"errors"
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

// The pooled CTR keystream against cipher.NewCTR: every length from 0 to
// 65 (whole blocks and the tails between them) under a plain iv, and the
// ivs whose counter wraps: all ones carries through all 16 bytes, and
// 00…00ff…ff carries out of the low 64 bits into the high ones.
func TestCTRMatchesStdlib(t *testing.T) {
	ones := bytes.Repeat([]byte{0xff}, 16)
	half := append(make([]byte, 8), ones[:8]...)
	nearWrap := append(bytes.Repeat([]byte{0xff}, 15), 0xfd)
	for _, iv := range [][]byte{make([]byte, 16), seqKey()[:16], ones, half, nearWrap} {
		for n := 0; n <= 65; n++ {
			pt := make([]byte, n)
			for i := range pt {
				pt[i] = byte(3*i + n)
			}
			checkCTR(t, seqKey(), iv, pt)
		}
	}
}

// AppendDecrypt opens into the caller's buffer and writes it only once
// the tag verifies: a tampered or truncated ciphertext returns the typed
// error and dst exactly as it was, length and bytes.
func TestAppendDecrypt(t *testing.T) {
	nd, _ := NewNonDetCipher(seqKey())
	pt := []byte("tuple plaintext of 27 bytes")
	ct, err := nd.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	dst := append(make([]byte, 0, 64), "hdr"...)
	got, err := nd.AppendDecrypt(dst, ct)
	if err != nil || string(got) != "hdr"+string(pt) || &got[0] != &dst[0] {
		t.Fatalf("AppendDecrypt = %q, %v; want hdr + the plaintext in dst's array", got, err)
	}
	flipped := func(i int) []byte {
		c := append([]byte(nil), ct...)
		c[i] ^= 0x01
		return c
	}
	for _, c := range []struct {
		name string
		ct   []byte
		want error
	}{
		{"flipped iv", flipped(0), ErrAuthentication},
		{"flipped body", flipped(20), ErrAuthentication},
		{"flipped tag", flipped(len(ct) - 1), ErrAuthentication},
		{"tag cut short", ct[:len(ct)-1], ErrAuthentication},
		{"shorter than iv and tag", ct[:Overhead-1], ErrCiphertext},
		{"empty", nil, ErrCiphertext},
	} {
		buf := make([]byte, 3, 64)
		for i := range buf[:cap(buf)] {
			buf[:cap(buf)][i] = 0xEE
		}
		out, err := nd.AppendDecrypt(buf, c.ct)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if len(out) != 3 || &out[0] != &buf[0] {
			t.Errorf("%s: returned %d bytes, want dst's 3", c.name, len(out))
		}
		if !bytes.Equal(buf[:cap(buf)], bytes.Repeat([]byte{0xEE}, cap(buf))) {
			t.Errorf("%s: dst's bytes were written", c.name)
		}
	}
}

// Steady-state allocation ceilings: a ciphertext or plaintext buffer
// leaves the call; no CTR stream, HMAC state, key block or tag does, and
// decrypting into a buffer that fits allocates nothing.
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
		{"NonDetCipher.Encrypt", 1, func() { nd.Encrypt(pt) }},
		{"NonDetCipher.Decrypt", 1, func() { nd.Decrypt(ndCT) }},
		{"NonDetCipher.AppendDecrypt", 0, func() { nd.AppendDecrypt(buf[:0], ndCT) }},
		{"DetCipher.Encrypt", 1, func() { det.Encrypt(pt) }},
		{"DetCipher.Decrypt", 1, func() { det.Decrypt(detCT) }},
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
// own HMAC state and CTR scratch (run under -race), Det and NonDet calls
// interleaving on the one scratch pool, and AppendDecrypt writing only
// the goroutine's own buffer.
func TestKeyedStateSharedAcrossGoroutines(t *testing.T) {
	nd, _ := NewNonDetCipher(seqKey())
	det, _ := NewDetCipher(seqKey())
	km := NewKeyedMAC(seqKey())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 0, 64)
			for i := 0; i < 200; i++ {
				pt := bytes.Repeat([]byte{byte(g), byte(i)}, 1+i%20)
				ct, err := nd.Encrypt(pt)
				if err != nil {
					t.Error(err)
					return
				}
				dct, _ := det.Encrypt(pt)
				if got, err := nd.Decrypt(ct); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("goroutine %d: NonDet round trip failed: %v", g, err)
					return
				}
				if buf, err = nd.AppendDecrypt(buf[:0], ct); err != nil || !bytes.Equal(buf, pt) {
					t.Errorf("goroutine %d: NonDet AppendDecrypt round trip failed: %v", g, err)
					return
				}
				if got, err := det.Decrypt(dct); err != nil || !bytes.Equal(got, pt) {
					t.Errorf("goroutine %d: interleaved Det round trip failed: %v", g, err)
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
