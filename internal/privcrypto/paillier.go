// Package privcrypto provides the cryptographic building blocks of the
// tutorial's Part III: the Paillier additively homomorphic cryptosystem
// (the "secure computation of +" primitive behind encrypted aggregation),
// a textbook RSA instance demonstrating multiplicative homomorphism, and
// the two symmetric encryption modes the [TNP14] protocols distinguish:
// non-deterministic (reveals nothing, supports token-side aggregation only)
// and deterministic (reveals equality, enabling SSI-side grouping at a
// controlled leakage cost). All constructions use only the standard
// library.
//
// The asymmetric keys here are sized for protocol experiments, not for
// production deployment; the protocols only rely on the algebraic
// properties, which hold at any size.
package privcrypto

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Errors returned by Paillier operations.
var (
	ErrMessageRange = errors.New("privcrypto: message outside [0, N)")
	ErrBadCipher    = errors.New("privcrypto: ciphertext outside [0, N^2)")
	ErrBadPrimes    = errors.New("privcrypto: p and q must be distinct primes")
)

var one = big.NewInt(1)

// PaillierPublicKey encrypts and combines ciphertexts.
type PaillierPublicKey struct {
	N  *big.Int // modulus p*q
	N2 *big.Int // N^2
}

// CipherLen returns the fixed byte width of a ciphertext under this key:
// every c < N² fits in ⌈N².BitLen()/8⌉ bytes. Wire encodings pad to this
// width (big-endian, via FillBytes) so ciphertext lengths — and with them
// byte-level traffic accounting — are identical run to run, instead of
// occasionally one byte shorter when a random ciphertext has leading
// zero bytes.
func (pk *PaillierPublicKey) CipherLen() int {
	return (pk.N2.BitLen() + 7) / 8
}

// PaillierPrivateKey decrypts. Keys built by GeneratePaillier or
// PaillierFromPrimes retain the prime factorization and decrypt via the
// Chinese Remainder Theorem (two half-width exponentiations instead of one
// full-width one, ~4x faster); keys restored without the factors fall back
// to the textbook L(c^λ)·μ path.
type PaillierPrivateKey struct {
	PaillierPublicKey
	lambda *big.Int // lcm(p-1, q-1)
	mu     *big.Int // lambda^{-1} mod N

	// CRT precomputation; all nil when the factorization is unknown.
	p, q     *big.Int
	pp, qq   *big.Int // p², q²
	pm1, qm1 *big.Int // p-1, q-1
	hp, hq   *big.Int // L_p(g^{p-1} mod p²)^{-1} mod p and the q twin
	pinvq    *big.Int // p^{-1} mod q (Garner recombination)
}

// GeneratePaillier creates a key pair with an n-bit modulus. bits must be
// at least 128 (use 1024+ for anything beyond simulation).
func GeneratePaillier(bits int, random io.Reader) (*PaillierPrivateKey, error) {
	if bits < 128 {
		return nil, fmt.Errorf("privcrypto: modulus too small (%d bits)", bits)
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, err
		}
		q, err := rand.Prime(random, bits-bits/2)
		if err != nil {
			return nil, err
		}
		sk, err := PaillierFromPrimes(p, q)
		if errors.Is(err, ErrBadPrimes) {
			continue // p == q or degenerate inverse: redraw
		}
		return sk, err
	}
}

// PaillierFromPrimes builds a private key from two distinct primes,
// precomputing the CRT constants. Equal primes are rejected up front,
// before any modular-inverse work.
func PaillierFromPrimes(p, q *big.Int) (*PaillierPrivateKey, error) {
	if p == nil || q == nil || p.Cmp(q) == 0 {
		return nil, ErrBadPrimes
	}
	n := new(big.Int).Mul(p, q)
	pm1 := new(big.Int).Sub(p, one)
	qm1 := new(big.Int).Sub(q, one)
	gcd := new(big.Int).GCD(nil, nil, pm1, qm1)
	lambda := new(big.Int).Mul(pm1, qm1)
	lambda.Div(lambda, gcd)
	mu := new(big.Int).ModInverse(lambda, n)
	if mu == nil {
		return nil, ErrBadPrimes
	}
	n2 := new(big.Int).Mul(n, n)
	sk := &PaillierPrivateKey{
		PaillierPublicKey: PaillierPublicKey{N: n, N2: n2},
		lambda:            lambda,
		mu:                mu,
		p:                 p,
		q:                 q,
		pp:                new(big.Int).Mul(p, p),
		qq:                new(big.Int).Mul(q, q),
		pm1:               pm1,
		qm1:               qm1,
	}
	// hp = L_p(g^{p-1} mod p²)^{-1} mod p with g = N+1; hq likewise.
	g := new(big.Int).Add(n, one)
	sk.hp = new(big.Int).ModInverse(lFunc(new(big.Int).Exp(g, pm1, sk.pp), p), p)
	sk.hq = new(big.Int).ModInverse(lFunc(new(big.Int).Exp(g, qm1, sk.qq), q), q)
	sk.pinvq = new(big.Int).ModInverse(p, q)
	if sk.hp == nil || sk.hq == nil || sk.pinvq == nil {
		return nil, ErrBadPrimes
	}
	return sk, nil
}

// lFunc is Paillier's L(x) = (x-1)/d.
func lFunc(x, d *big.Int) *big.Int {
	out := new(big.Int).Sub(x, one)
	return out.Div(out, d)
}

// Public returns the public half of the key.
func (sk *PaillierPrivateKey) Public() *PaillierPublicKey { return &sk.PaillierPublicKey }

// drawRandomizer samples r uniform in (0, N) with gcd(r, N) = 1.
func (pk *PaillierPublicKey) drawRandomizer(random io.Reader) (*big.Int, error) {
	if random == nil {
		random = rand.Reader
	}
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() > 0 && new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Encrypt encrypts m in [0, N) with fresh randomness (the generator is the
// standard g = N+1, so Enc(m) = (1+mN)·r^N mod N²).
func (pk *PaillierPublicKey) Encrypt(m *big.Int, random io.Reader) (*big.Int, error) {
	if m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return nil, fmt.Errorf("%w: %v", ErrMessageRange, m)
	}
	r, err := pk.drawRandomizer(random)
	if err != nil {
		return nil, err
	}
	c := new(big.Int).Mul(m, pk.N)
	c.Add(c, one)
	c.Mod(c, pk.N2)
	c.Mul(c, new(big.Int).Exp(r, pk.N, pk.N2))
	c.Mod(c, pk.N2)
	return c, nil
}

// EncryptInt64 encrypts a non-negative int64.
func (pk *PaillierPublicKey) EncryptInt64(m int64, random io.Reader) (*big.Int, error) {
	if m < 0 {
		return nil, fmt.Errorf("%w: %d", ErrMessageRange, m)
	}
	return pk.Encrypt(big.NewInt(m), random)
}

// Decrypt recovers the plaintext, using the CRT fast path when the key
// retains its prime factorization and the textbook path otherwise.
func (sk *PaillierPrivateKey) Decrypt(c *big.Int) (*big.Int, error) {
	if sk.p == nil {
		return sk.DecryptTextbook(c)
	}
	if c.Sign() <= 0 || c.Cmp(sk.N2) >= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadCipher, c)
	}
	// m_p = L_p(c^{p-1} mod p²)·h_p mod p, and the q twin; recombine with
	// Garner: m = m_p + p·((m_q − m_p)·p⁻¹ mod q).
	mp := lFunc(new(big.Int).Exp(c, sk.pm1, sk.pp), sk.p)
	mp.Mul(mp, sk.hp)
	mp.Mod(mp, sk.p)
	mq := lFunc(new(big.Int).Exp(c, sk.qm1, sk.qq), sk.q)
	mq.Mul(mq, sk.hq)
	mq.Mod(mq, sk.q)
	t := new(big.Int).Sub(mq, mp)
	t.Mul(t, sk.pinvq)
	t.Mod(t, sk.q)
	t.Mul(t, sk.p)
	return t.Add(t, mp), nil
}

// DecryptTextbook recovers the plaintext with the paper's full-width
// formula L(c^λ mod N²)·μ mod N with L(x)=(x-1)/N — the reference path the
// CRT optimization is cross-checked against.
func (sk *PaillierPrivateKey) DecryptTextbook(c *big.Int) (*big.Int, error) {
	if c.Sign() <= 0 || c.Cmp(sk.N2) >= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadCipher, c)
	}
	x := new(big.Int).Exp(c, sk.lambda, sk.N2)
	x.Sub(x, one)
	x.Div(x, sk.N)
	x.Mul(x, sk.mu)
	x.Mod(x, sk.N)
	return x, nil
}

// AddCipher homomorphically adds two ciphertexts: Dec(c1·c2) = m1+m2 mod N.
func (pk *PaillierPublicKey) AddCipher(c1, c2 *big.Int) *big.Int {
	out := new(big.Int).Mul(c1, c2)
	return out.Mod(out, pk.N2)
}

// MulPlain homomorphically multiplies a ciphertext by a plaintext scalar:
// Dec(c^k) = k·m mod N.
func (pk *PaillierPublicKey) MulPlain(c *big.Int, k *big.Int) *big.Int {
	return new(big.Int).Exp(c, k, pk.N2)
}

// EncryptZero returns a fresh encryption of zero (used for re-randomizing
// aggregates before they leave a token).
func (pk *PaillierPublicKey) EncryptZero(random io.Reader) (*big.Int, error) {
	return pk.Encrypt(big.NewInt(0), random)
}
