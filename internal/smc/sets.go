package smc

import (
	"math/big"
	"slices"

	"pds/internal/transport"
)

// SecureSetUnion computes the union of the parties' private item sets with
// the [CKV+02] commutative-encryption protocol over w:
//
//  1. every party encrypts its own items with its key and passes them
//     along the ring until each item carries every party's layer;
//  2. the fully-encrypted multiset is pooled and deduplicated — equal
//     items collide regardless of origin, and nobody can tell whose
//     duplicate was removed;
//  3. the layers are peeled off by each party in turn, revealing the
//     union but not the item↔owner mapping (the pool is shuffled by
//     sorting ciphertexts).
//
// Items must be non-negative. The returned union is sorted. Each item hop
// travels as one envelope carrying the ciphertext the next party receives,
// so the wire never carries an item in the clear; the Trace counts them.
func SecureSetUnion(w transport.Transport, sets [][]int64) ([]int64, *Trace, error) {
	if len(sets) < 3 {
		return nil, nil, ErrTooFewParties
	}
	run := borrow(w)
	defer run.release()
	ciphers, pool, err := encryptAll(w, sets)
	if err != nil {
		return nil, nil, err
	}

	// Phase 2: dedupe on ciphertexts; sort to destroy arrival order.
	slices.SortFunc(pool, (*big.Int).Cmp)
	uniq := slices.CompactFunc(pool, func(a, b *big.Int) bool { return a.Cmp(b) == 0 })

	// Phase 3: every party in turn receives each pooled ciphertext and
	// peels its layer (layer order is irrelevant — that is the
	// commutativity); the last layer comes off at the last party.
	n := len(sets)
	out := make([]int64, 0, len(uniq))
	for _, y := range uniq {
		for i, c := range ciphers {
			y = new(big.Int).SetBytes(send(w, party((i+n-1)%n), party(i), "decrypt", y.Bytes()))
			if y, err = c.Decrypt(y); err != nil {
				return nil, nil, err
			}
		}
		out = append(out, DecodeItem(y))
	}
	slices.Sort(out)
	return out, run.trace(), nil
}

// SecureIntersectionSize computes |∩ sets| over w with the same machinery:
// after full encryption, an item present at every party yields n equal
// ciphertexts, so the size of the intersection is the number of ciphertext
// values with multiplicity n. Nothing is ever decrypted — only the size is
// learned.
func SecureIntersectionSize(w transport.Transport, sets [][]int64) (int, *Trace, error) {
	if len(sets) < 3 {
		return 0, nil, ErrTooFewParties
	}
	run := borrow(w)
	defer run.release()
	_, pool, err := encryptAll(w, sets)
	if err != nil {
		return 0, nil, err
	}
	counts := map[string]int{}
	for _, x := range pool {
		counts[string(x.Bytes())]++
	}
	size := 0
	for _, c := range counts {
		if c == len(sets) {
			size++
		}
	}
	return size, run.trace(), nil
}

// encryptAll is the full-encryption phase both set protocols share. It
// draws one commutative key per party and walks each party's distinct
// items around the ring, one envelope per hop, until every item carries
// every party's layer. It returns the keys and the fully encrypted pool.
func encryptAll(w transport.Transport, sets [][]int64) ([]*CommutativeCipher, []*big.Int, error) {
	n := len(sets)
	ciphers := make([]*CommutativeCipher, n)
	for i := range ciphers {
		c, err := NewCommutativeCipher(nil)
		if err != nil {
			return nil, nil, err
		}
		ciphers[i] = c
	}
	var pool []*big.Int
	for owner, set := range sets {
		seen := map[int64]bool{}
		for _, item := range set {
			if seen[item] {
				continue
			}
			seen[item] = true
			x := EncodeItem(item)
			for hop := 0; hop < n; hop++ {
				p := (owner + hop) % n
				y, err := ciphers[p].Encrypt(x)
				if err != nil {
					return nil, nil, err
				}
				x = new(big.Int).SetBytes(send(w, party(p), party((p+1)%n), "encrypt", y.Bytes()))
			}
			pool = append(pool, x)
		}
	}
	return ciphers, pool, nil
}
