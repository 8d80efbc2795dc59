package privcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"math/big"
	"sync"
	"testing"
)

// fuzzKey caches one keypair for the whole fuzz run: key generation is
// orders of magnitude slower than the paths under test.
var fuzzKey = struct {
	once sync.Once
	sk   *PaillierPrivateKey
	err  error
}{}

func fuzzPaillierKey(t testing.TB) *PaillierPrivateKey {
	fuzzKey.once.Do(func() {
		fuzzKey.sk, fuzzKey.err = GeneratePaillier(256, rand.Reader)
	})
	if fuzzKey.err != nil {
		t.Fatal(fuzzKey.err)
	}
	return fuzzKey.sk
}

// FuzzPaillierDecryptCRTvsTextbook cross-checks the CRT decryption fast
// path against the textbook L-function path: for any message (reduced into
// [0, N)) the encrypt→decrypt round trip must return the message on both
// paths, and for any candidate ciphertext the two paths must agree —
// either the same plaintext or the same rejection.
func FuzzPaillierDecryptCRTvsTextbook(f *testing.F) {
	f.Add([]byte{0}, false)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, false)
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef}, true)
	f.Fuzz(func(t *testing.T, data []byte, asCipher bool) {
		sk := fuzzPaillierKey(t)
		v := new(big.Int).SetBytes(data)
		if asCipher {
			// Treat the input as a raw ciphertext candidate in (0, N²).
			c := new(big.Int).Mod(v, sk.N2)
			if c.Sign() == 0 {
				c.SetInt64(1)
			}
			mCRT, errCRT := sk.Decrypt(c)
			mTB, errTB := sk.DecryptTextbook(c)
			if (errCRT == nil) != (errTB == nil) {
				t.Fatalf("paths disagree on validity: CRT err=%v textbook err=%v", errCRT, errTB)
			}
			if errCRT == nil && mCRT.Cmp(mTB) != 0 {
				t.Fatalf("CRT decrypt %v != textbook %v for c=%v", mCRT, mTB, c)
			}
			return
		}
		m := new(big.Int).Mod(v, sk.N)
		c, err := sk.Encrypt(m, rand.Reader)
		if err != nil {
			t.Fatalf("encrypt %v: %v", m, err)
		}
		mCRT, err := sk.Decrypt(c)
		if err != nil {
			t.Fatalf("CRT decrypt: %v", err)
		}
		mTB, err := sk.DecryptTextbook(c)
		if err != nil {
			t.Fatalf("textbook decrypt: %v", err)
		}
		if mCRT.Cmp(m) != 0 || mTB.Cmp(m) != 0 {
			t.Fatalf("round trip lost the message: m=%v CRT=%v textbook=%v", m, mCRT, mTB)
		}
	})
}

// checkCTR compares the keystream xorCTR writes with cipher.NewCTR's for
// one key, iv and plaintext, into a fresh buffer and in place. key and
// iv are cut or zero-padded to 16 bytes.
func checkCTR(t *testing.T, key, iv, pt []byte) {
	t.Helper()
	var k, v [aes.BlockSize]byte
	copy(k[:], key)
	copy(v[:], iv)
	block, err := aes.NewCipher(k[:])
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, len(pt))
	cipher.NewCTR(block, v[:]).XORKeyStream(want, pt)
	got := make([]byte, len(pt))
	xorCTR(block, v[:], got, pt)
	if !bytes.Equal(got, want) {
		t.Fatalf("key %x iv %x, %d bytes: xorCTR = %x, cipher.NewCTR = %x", k, v, len(pt), got, want)
	}
	inPlace := append([]byte(nil), pt...)
	xorCTR(block, v[:], inPlace, inPlace)
	if !bytes.Equal(inPlace, want) {
		t.Fatalf("key %x iv %x, %d bytes: in place = %x, cipher.NewCTR = %x", k, v, len(pt), inPlace, want)
	}
}

// FuzzCTRMatchesStdlib is the differential target of the pooled CTR
// keystream: for every key, iv and plaintext it writes what
// cipher.NewCTR writes, the counter carrying across all 16 bytes.
func FuzzCTRMatchesStdlib(f *testing.F) {
	ones := bytes.Repeat([]byte{0xff}, 16)
	f.Add([]byte("k"), []byte{}, []byte{})
	f.Add(seqKey(), ones, make([]byte, 33))
	f.Add(seqKey(), append(make([]byte, 8), ones[:8]...), make([]byte, 65))
	f.Fuzz(func(t *testing.T, key, iv, pt []byte) {
		checkCTR(t, key, iv, pt)
	})
}
