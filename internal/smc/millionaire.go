package smc

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"pds/internal/privcrypto"
	"pds/internal/transport"
)

// Millionaire runs Yao's 1982 protocol deciding whether Alice's private
// value i is at least Bob's private value j, both in [1, domain], without
// revealing either. The tutorial cites it as the origin of generic SMC and
// notes its cost is proportional to the size of the compared domain —
// which this implementation makes directly measurable: Alice performs one
// RSA decryption per domain element.
//
// Protocol (textbook form):
//  1. Bob draws a random x, computes c = Enc_A(x) and sends m = c − j.
//  2. Alice computes y_u = Dec_A(m+u) for u = 1..domain (so y_j = x),
//     picks a prime p such that the residues z_u = y_u mod p are pairwise
//     non-adjacent, and sends p plus the sequence w_u, where w_u = z_u for
//     u ≤ i and z_u+1 for u > i.
//  3. Bob checks w_j ≡ x (mod p): equality means j ≤ i.
//
// Each message (m, every w_u and p) is one envelope on w.
func Millionaire(w transport.Transport, i, j, domain int64, key *privcrypto.RSAKey) (bool, *Trace, error) {
	if domain < 1 || i < 1 || i > domain || j < 1 || j > domain {
		return false, nil, fmt.Errorf("smc: millionaire inputs out of [1,%d]: i=%d j=%d", domain, i, j)
	}
	if key == nil {
		var err error
		key, err = privcrypto.GenerateRSA(512, nil)
		if err != nil {
			return false, nil, err
		}
	}
	run := borrow(w)
	defer run.release()
	msg := func(from, to string, v *big.Int) *big.Int {
		return new(big.Int).SetBytes(send(w, from, to, "millionaire", v.Bytes()))
	}

	// Bob.
	x, err := rand.Int(rand.Reader, key.N)
	if err != nil {
		return false, nil, err
	}
	c, err := key.Encrypt(x)
	if err != nil {
		return false, nil, err
	}
	m := new(big.Int).Sub(c, big.NewInt(j))
	m = msg("bob", "alice", m.Mod(m, key.N))

	// Alice: y_u = Dec(m + u) for u in 1..domain.
	ys := make([]*big.Int, domain)
	for u := int64(1); u <= domain; u++ {
		cu := new(big.Int).Add(m, big.NewInt(u))
		cu.Mod(cu, key.N)
		y, err := key.Decrypt(cu)
		if err != nil {
			return false, nil, err
		}
		ys[u-1] = y
	}
	p, zs, err := pickSeparatingPrime(ys)
	if err != nil {
		return false, nil, err
	}
	ws := make([]*big.Int, domain)
	for u := int64(1); u <= domain; u++ {
		wu := new(big.Int).Set(zs[u-1])
		if u > i {
			wu.Add(wu, big.NewInt(1))
			wu.Mod(wu, p)
		}
		ws[u-1] = msg("alice", "bob", wu)
	}
	p = msg("alice", "bob", p) // the prime itself

	// Bob: w_j == x mod p  ⇔  j <= i.
	xModP := new(big.Int).Mod(x, p)
	return ws[j-1].Cmp(xModP) == 0, run.trace(), nil
}

// pickSeparatingPrime finds a prime p such that the residues y_u mod p are
// pairwise different by at least 2 modulo p (so adding 1 cannot create a
// collision).
func pickSeparatingPrime(ys []*big.Int) (*big.Int, []*big.Int, error) {
	for attempt := 0; attempt < 512; attempt++ {
		p, err := rand.Prime(rand.Reader, 128)
		if err != nil {
			return nil, nil, err
		}
		zs := make([]*big.Int, len(ys))
		for i, y := range ys {
			zs[i] = new(big.Int).Mod(y, p)
		}
		if residuesWellSeparated(zs, p) {
			return p, zs, nil
		}
	}
	return nil, nil, errors.New("smc: could not find a separating prime")
}

// residuesWellSeparated reports whether all residues differ by at least 2
// modulo p (cyclically).
func residuesWellSeparated(zs []*big.Int, p *big.Int) bool {
	one := big.NewInt(1)
	pm1 := new(big.Int).Sub(p, one)
	for i := 0; i < len(zs); i++ {
		for j := i + 1; j < len(zs); j++ {
			d := new(big.Int).Sub(zs[i], zs[j])
			d.Mod(d, p)
			if d.Sign() == 0 || d.Cmp(one) == 0 || d.Cmp(pm1) == 0 {
				return false
			}
		}
	}
	return true
}
