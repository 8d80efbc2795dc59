package privcrypto

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// RSAKey is a textbook (unpadded) RSA instance kept solely to demonstrate
// the multiplicative homomorphism the tutorial uses as its introductory
// example: E(p1)·E(p2) = E(p1·p2) mod m. Textbook RSA is malleable by
// design — that malleability IS the homomorphism — so this type must never
// be used to protect real data.
type RSAKey struct {
	N *big.Int // modulus
	E *big.Int // public exponent
	d *big.Int // private exponent
}

// GenerateRSA creates a textbook RSA key with an n-bit modulus.
func GenerateRSA(bits int, random io.Reader) (*RSAKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("privcrypto: modulus too small (%d bits)", bits)
	}
	if random == nil {
		random = rand.Reader
	}
	e := big.NewInt(65537)
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil {
			continue
		}
		return &RSAKey{N: n, E: e, d: d}, nil
	}
}

// Encrypt computes m^e mod N.
func (k *RSAKey) Encrypt(m *big.Int) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(k.N) >= 0 {
		return nil, fmt.Errorf("%w: %v", ErrMessageRange, m)
	}
	return new(big.Int).Exp(m, k.E, k.N), nil
}

// Decrypt computes c^d mod N.
func (k *RSAKey) Decrypt(c *big.Int) (*big.Int, error) {
	if c.Sign() < 0 || c.Cmp(k.N) >= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadCipher, c)
	}
	return new(big.Int).Exp(c, k.d, k.N), nil
}
