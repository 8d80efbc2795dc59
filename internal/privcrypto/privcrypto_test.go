package privcrypto

import (
	"bytes"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// testPaillier caches one key pair: generation dominates test time.
var testPaillier *PaillierPrivateKey

func paillierKey(t testing.TB) *PaillierPrivateKey {
	t.Helper()
	if testPaillier == nil {
		sk, err := GeneratePaillier(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		testPaillier = sk
	}
	return testPaillier
}

func TestPaillierRoundTrip(t *testing.T) {
	sk := paillierKey(t)
	for _, m := range []int64{0, 1, 42, 1 << 40} {
		c, err := sk.Public().EncryptInt64(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		if got.Int64() != m {
			t.Errorf("Dec(Enc(%d)) = %v", m, got)
		}
	}
}

func TestPaillierAdditiveHomomorphism(t *testing.T) {
	sk := paillierKey(t)
	pk := sk.Public()
	c1, _ := pk.EncryptInt64(1234, nil)
	c2, _ := pk.EncryptInt64(8766, nil)
	sum, err := sk.Decrypt(pk.AddCipher(c1, c2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 10000 {
		t.Errorf("homomorphic sum = %v, want 10000", sum)
	}
}

func TestPaillierScalarMul(t *testing.T) {
	sk := paillierKey(t)
	pk := sk.Public()
	c, _ := pk.EncryptInt64(7, nil)
	got, err := sk.Decrypt(pk.MulPlain(c, big.NewInt(6)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 42 {
		t.Errorf("scalar mul = %v, want 42", got)
	}
}

func TestPaillierNonDeterministic(t *testing.T) {
	pk := paillierKey(t).Public()
	c1, _ := pk.EncryptInt64(5, nil)
	c2, _ := pk.EncryptInt64(5, nil)
	if c1.Cmp(c2) == 0 {
		t.Error("two encryptions of 5 are identical")
	}
}

func TestPaillierRangeChecks(t *testing.T) {
	sk := paillierKey(t)
	pk := sk.Public()
	if _, err := pk.Encrypt(big.NewInt(-1), nil); !errors.Is(err, ErrMessageRange) {
		t.Errorf("negative message err = %v", err)
	}
	if _, err := pk.Encrypt(pk.N, nil); !errors.Is(err, ErrMessageRange) {
		t.Errorf("message == N err = %v", err)
	}
	if _, err := pk.EncryptInt64(-4, nil); !errors.Is(err, ErrMessageRange) {
		t.Errorf("negative int64 err = %v", err)
	}
	if _, err := sk.Decrypt(big.NewInt(0)); !errors.Is(err, ErrBadCipher) {
		t.Errorf("zero cipher err = %v", err)
	}
	if _, err := sk.Decrypt(pk.N2); !errors.Is(err, ErrBadCipher) {
		t.Errorf("cipher == N^2 err = %v", err)
	}
	if _, err := GeneratePaillier(64, nil); err == nil {
		t.Error("64-bit modulus accepted")
	}
}

func TestPaillierEncryptZeroRerandomizes(t *testing.T) {
	sk := paillierKey(t)
	pk := sk.Public()
	c, _ := pk.EncryptInt64(99, nil)
	z, err := pk.EncryptZero(nil)
	if err != nil {
		t.Fatal(err)
	}
	rerand := pk.AddCipher(c, z)
	if rerand.Cmp(c) == 0 {
		t.Error("re-randomization did not change the ciphertext")
	}
	got, _ := sk.Decrypt(rerand)
	if got.Int64() != 99 {
		t.Errorf("re-randomized decrypts to %v", got)
	}
}

func TestQuickPaillierSum(t *testing.T) {
	sk := paillierKey(t)
	pk := sk.Public()
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 16 {
			vals = vals[:16]
		}
		var want int64
		acc, err := pk.EncryptZero(nil)
		if err != nil {
			return false
		}
		for _, v := range vals {
			c, err := pk.EncryptInt64(int64(v), nil)
			if err != nil {
				return false
			}
			acc = pk.AddCipher(acc, c)
			want += int64(v)
		}
		got, err := sk.Decrypt(acc)
		return err == nil && got.Int64() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRSAHomomorphism(t *testing.T) {
	k, err := GenerateRSA(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := k.Encrypt(big.NewInt(6))
	c2, _ := k.Encrypt(big.NewInt(7))
	prod := new(big.Int).Mul(c1, c2)
	got, err := k.Decrypt(prod.Mod(prod, k.N))
	if err != nil {
		t.Fatal(err)
	}
	if got.Int64() != 42 {
		t.Errorf("E(6)*E(7) decrypts to %v, want 42", got)
	}
	// Round trip and range checks.
	c, _ := k.Encrypt(big.NewInt(123456789))
	m, _ := k.Decrypt(c)
	if m.Int64() != 123456789 {
		t.Errorf("round trip = %v", m)
	}
	if _, err := k.Encrypt(k.N); err == nil {
		t.Error("message == N accepted")
	}
	if _, err := k.Decrypt(big.NewInt(-1)); err == nil {
		t.Error("negative cipher accepted")
	}
	if _, err := GenerateRSA(32, nil); err == nil {
		t.Error("32-bit modulus accepted")
	}
}

func TestNonDetCipherRoundTrip(t *testing.T) {
	key, err := NewKey()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewNonDetCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("the patient is doing well")
	ct1, err := c.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	ct2, _ := c.Encrypt(pt)
	if bytes.Equal(ct1, ct2) {
		t.Error("non-deterministic cipher produced equal ciphertexts")
	}
	got, err := c.Decrypt(ct1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Errorf("round trip = %q", got)
	}
}

func TestDetCipherDeterministicAndCorrect(t *testing.T) {
	key, _ := NewKey()
	c, err := NewDetCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	pt := []byte("diagnosis=flu")
	ct1, _ := c.Encrypt(pt)
	ct2, _ := c.Encrypt(pt)
	if !bytes.Equal(ct1, ct2) {
		t.Error("deterministic cipher produced different ciphertexts")
	}
	other, _ := c.Encrypt([]byte("diagnosis=cold"))
	if bytes.Equal(ct1, other) {
		t.Error("different plaintexts encrypted identically")
	}
	got, err := c.Decrypt(ct1)
	if err != nil || !bytes.Equal(got, pt) {
		t.Errorf("round trip = %q, %v", got, err)
	}
}

func TestCipherTamperDetection(t *testing.T) {
	key, _ := NewKey()
	nd, _ := NewNonDetCipher(key)
	det, _ := NewDetCipher(key)
	for name, enc := range map[string]func([]byte) ([]byte, error){
		"nondet": nd.Encrypt, "det": det.Encrypt,
	} {
		ct, _ := enc([]byte("payload"))
		ct[len(ct)/2] ^= 1
		var err error
		if name == "nondet" {
			_, err = nd.Decrypt(ct)
		} else {
			_, err = det.Decrypt(ct)
		}
		if !errors.Is(err, ErrAuthentication) {
			t.Errorf("%s: tampered ciphertext err = %v", name, err)
		}
	}
}

func TestCipherMalformedInput(t *testing.T) {
	key, _ := NewKey()
	nd, _ := NewNonDetCipher(key)
	det, _ := NewDetCipher(key)
	if _, err := nd.Decrypt([]byte("short")); !errors.Is(err, ErrCiphertext) {
		t.Errorf("short nondet err = %v", err)
	}
	if _, err := det.Decrypt(nil); !errors.Is(err, ErrCiphertext) {
		t.Errorf("nil det err = %v", err)
	}
}

func TestCipherKeySizeEnforced(t *testing.T) {
	if _, err := NewNonDetCipher(make([]byte, 16)); !errors.Is(err, ErrBadKeySize) {
		t.Error("short key accepted by nondet")
	}
	if _, err := NewDetCipher(make([]byte, 31)); !errors.Is(err, ErrBadKeySize) {
		t.Error("short key accepted by det")
	}
}

func TestWrongKeyFailsAuth(t *testing.T) {
	k1, _ := NewKey()
	k2, _ := NewKey()
	c1, _ := NewNonDetCipher(k1)
	c2, _ := NewNonDetCipher(k2)
	ct, _ := c1.Encrypt([]byte("secret"))
	if _, err := c2.Decrypt(ct); !errors.Is(err, ErrAuthentication) {
		t.Errorf("wrong key err = %v", err)
	}
}

func TestMAC(t *testing.T) {
	key, _ := NewKey()
	msg := []byte("protocol message")
	tag := MAC(key, msg)
	km := NewKeyedMAC(key)
	if !km.Verify(msg, tag) {
		t.Error("valid MAC rejected")
	}
	if km.Verify([]byte("other"), tag) {
		t.Error("MAC verified for wrong message")
	}
	bad := append([]byte(nil), tag...)
	bad[0] ^= 1
	if km.Verify(msg, bad) {
		t.Error("tampered MAC verified")
	}
}

func TestQuickSymmetricRoundTrip(t *testing.T) {
	key, _ := NewKey()
	nd, _ := NewNonDetCipher(key)
	det, _ := NewDetCipher(key)
	f := func(pt []byte) bool {
		c1, err := nd.Encrypt(pt)
		if err != nil {
			return false
		}
		p1, err := nd.Decrypt(c1)
		if err != nil || !bytes.Equal(p1, pt) {
			return false
		}
		c2, err := det.Encrypt(pt)
		if err != nil {
			return false
		}
		p2, err := det.Decrypt(c2)
		return err == nil && bytes.Equal(p2, pt)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
