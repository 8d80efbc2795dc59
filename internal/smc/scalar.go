package smc

import (
	"errors"
	"fmt"
	"math/big"

	"pds/internal/privcrypto"
	"pds/internal/transport"
)

// Scalar product errors.
var (
	ErrVectorLength = errors.New("smc: vectors must have equal nonzero length")
	ErrNegative     = errors.New("smc: scalar product inputs must be non-negative")
)

// ScalarProduct runs the two-party secure scalar product over w: Alice
// (who holds the Paillier private key and vector a) sends element-wise
// encryptions; Bob (vector b) computes Enc(Σ aᵢbᵢ) purely homomorphically
// and returns it re-randomized. Alice learns only the dot product; Bob
// learns nothing (he only ever sees ciphertexts under Alice's key). Every
// ciphertext travels at the key's fixed wire width, so the transcript cost
// is identical run to run (a raw big.Int serialization is occasionally a
// byte shorter).
func ScalarProduct(w transport.Transport, a, b []int64, sk *privcrypto.PaillierPrivateKey) (int64, *Trace, error) {
	if len(a) == 0 || len(a) != len(b) {
		return 0, nil, fmt.Errorf("%w: %d vs %d", ErrVectorLength, len(a), len(b))
	}
	for i, v := range a {
		if v < 0 {
			return 0, nil, fmt.Errorf("%w: a[%d]=%d", ErrNegative, i, v)
		}
	}
	for i, v := range b {
		if v < 0 {
			return 0, nil, fmt.Errorf("%w: b[%d]=%d", ErrNegative, i, v)
		}
	}
	pk := sk.Public()
	run := borrow(w)
	defer run.release()
	cipher := func(from, to string, c *big.Int) *big.Int {
		return new(big.Int).SetBytes(send(w, from, to, "scalar", c.FillBytes(make([]byte, pk.CipherLen()))))
	}

	// Alice → Bob: Enc(a_i).
	encA := make([]*big.Int, len(a))
	for i, v := range a {
		c, err := pk.EncryptInt64(v, nil)
		if err != nil {
			return 0, nil, err
		}
		encA[i] = cipher("alice", "bob", c)
	}

	// Bob: Enc(Σ a_i·b_i) = Π Enc(a_i)^{b_i}, re-randomized with Enc(0).
	acc, err := pk.EncryptZero(nil)
	if err != nil {
		return 0, nil, err
	}
	for i, v := range b {
		if v != 0 {
			acc = pk.AddCipher(acc, pk.MulPlain(encA[i], big.NewInt(v)))
		}
	}

	// Bob → Alice: the blinded aggregate.
	dot, err := sk.Decrypt(cipher("bob", "alice", acc))
	if err != nil {
		return 0, nil, err
	}
	return dot.Int64(), run.trace(), nil
}
