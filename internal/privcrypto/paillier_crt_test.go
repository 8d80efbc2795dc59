package privcrypto

import (
	"errors"
	"math/big"
	"testing"
)

func testKey(t testing.TB) *PaillierPrivateKey {
	t.Helper()
	sk, err := GeneratePaillier(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

func TestPaillierCRTMatchesTextbook(t *testing.T) {
	sk := testKey(t)
	if sk.p == nil {
		t.Fatal("generated key should retain its factorization")
	}
	for i := int64(0); i < 50; i++ {
		m := new(big.Int).Mod(new(big.Int).Mul(big.NewInt(i), big.NewInt(1<<40+7)), sk.N)
		c, err := sk.Encrypt(m, nil)
		if err != nil {
			t.Fatal(err)
		}
		crt, err := sk.Decrypt(c)
		if err != nil {
			t.Fatal(err)
		}
		textbook, err := sk.DecryptTextbook(c)
		if err != nil {
			t.Fatal(err)
		}
		if crt.Cmp(textbook) != 0 || crt.Cmp(m) != 0 {
			t.Fatalf("m=%v: crt=%v textbook=%v", m, crt, textbook)
		}
	}
}

func TestPaillierDecryptWithoutFactorsFallsBack(t *testing.T) {
	sk := testKey(t)
	// A key restored without its factors (e.g. from a minimal
	// serialization) must still decrypt via the textbook path.
	bare := &PaillierPrivateKey{
		PaillierPublicKey: sk.PaillierPublicKey,
		lambda:            sk.lambda,
		mu:                sk.mu,
	}
	c, err := sk.EncryptInt64(424242, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := bare.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 424242 {
		t.Fatalf("got %v", m)
	}
}

func TestPaillierFromPrimesRejectsEqualPrimes(t *testing.T) {
	p := big.NewInt(65537)
	if _, err := PaillierFromPrimes(p, p); !errors.Is(err, ErrBadPrimes) {
		t.Fatalf("want ErrBadPrimes, got %v", err)
	}
	if _, err := PaillierFromPrimes(nil, p); !errors.Is(err, ErrBadPrimes) {
		t.Fatalf("want ErrBadPrimes for nil prime, got %v", err)
	}
}

func TestPaillierFromPrimesRoundTrip(t *testing.T) {
	sk, err := PaillierFromPrimes(big.NewInt(65537), big.NewInt(65539))
	if err != nil {
		t.Fatal(err)
	}
	c, err := sk.EncryptInt64(12345, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sk.Decrypt(c)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 12345 {
		t.Fatalf("got %v", m)
	}
}
