// Package smc implements the secure multi-party computation toolkit the
// tutorial presents as the state of the art for specific global
// computations ([CKV+02]): secure sum, secure set union, secure size of
// set intersection and scalar product — plus Yao's original millionaire
// protocol as the historical reference point for generic (and costly) SMC.
//
// Every protocol is simulated among in-process parties and records a Trace
// of the messages exchanged, so benchmarks can report communication cost
// and tests can verify what each party could observe.
package smc

import (
	"errors"
	"fmt"
	"math/rand"
)

// Errors returned by toolkit protocols.
var (
	ErrTooFewParties = errors.New("smc: protocol needs at least 3 parties")
	ErrBadModulus    = errors.New("smc: modulus must be positive")
	ErrValueRange    = errors.New("smc: value outside [0, modulus)")
)

// Trace records the communication of one protocol run.
type Trace struct {
	Messages int
	Bytes    int
	// Observations[i] holds the raw values party i received — used by
	// tests to check that intermediate messages leak nothing.
	Observations [][]int64
}

func (tr *Trace) record(to int, value int64, size int) {
	tr.Messages++
	tr.Bytes += size
	for len(tr.Observations) <= to {
		tr.Observations = append(tr.Observations, nil)
	}
	tr.Observations[to] = append(tr.Observations[to], value)
}

// SecureSum runs the [CKV+02] ring protocol: the initiator masks its value
// with a uniform random R modulo m; each party adds its value modulo m and
// forwards; the initiator finally subtracts R. Every intermediate message
// is uniformly distributed, so an honest-but-curious party learns nothing
// beyond the final sum.
//
// values[i] is party i's private input, all in [0, modulus). The returned
// sum is Σ values mod modulus.
func SecureSum(values []int64, modulus int64, rng *rand.Rand) (int64, *Trace, error) {
	if len(values) < 3 {
		return 0, nil, fmt.Errorf("%w: have %d", ErrTooFewParties, len(values))
	}
	if modulus <= 0 {
		return 0, nil, ErrBadModulus
	}
	for i, v := range values {
		if v < 0 || v >= modulus {
			return 0, nil, fmt.Errorf("%w: party %d value %d", ErrValueRange, i, v)
		}
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	sum, tr := secureSumWithMask(values, modulus, rng.Int63n(modulus))
	return sum, tr, nil
}

// secureSumWithMask runs the ring with the initiator's mask r.
func secureSumWithMask(values []int64, modulus, r int64) (int64, *Trace) {
	tr := &Trace{}
	running := (values[0] + r) % modulus
	// P0 → P1 → … → Pn-1 → P0.
	for i := 1; i < len(values); i++ {
		tr.record(i, running, 8)
		running = (running + values[i]) % modulus
	}
	tr.record(0, running, 8)
	return ((running-r)%modulus + modulus) % modulus, tr
}

// SecureSumSegmented is the collusion-hardened variant [CKV+02] suggest:
// each party splits its value into `segments` random shares and the ring
// protocol runs once per segment with a different party order, so a
// coalition of neighbours learns only masked segments. Returns the total.
func SecureSumSegmented(values []int64, modulus int64, segments int, rng *rand.Rand) (int64, *Trace, error) {
	if segments < 1 {
		return 0, nil, fmt.Errorf("smc: segments must be >= 1, got %d", segments)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(rand.Int63()))
	}
	n := len(values)
	if n < 3 {
		return 0, nil, fmt.Errorf("%w: have %d", ErrTooFewParties, n)
	}
	if modulus <= 0 {
		return 0, nil, ErrBadModulus
	}
	// Split each value into random shares summing to it modulo m.
	shares := make([][]int64, segments)
	for s := range shares {
		shares[s] = make([]int64, n)
	}
	for i, v := range values {
		if v < 0 || v >= modulus {
			return 0, nil, fmt.Errorf("%w: party %d value %d", ErrValueRange, i, v)
		}
		rest := v
		for s := 0; s < segments-1; s++ {
			sh := rng.Int63n(modulus)
			shares[s][i] = sh
			rest = ((rest-sh)%modulus + modulus) % modulus
		}
		shares[segments-1][i] = rest
	}
	total := int64(0)
	agg := &Trace{}
	rot := make([]int64, n)
	for s := 0; s < segments; s++ {
		// Rotate the ring start per segment.
		for i := range rot {
			rot[i] = shares[s][(i+s)%n]
		}
		sum, tr := secureSumWithMask(rot, modulus, rng.Int63n(modulus))
		agg.Messages += tr.Messages
		agg.Bytes += tr.Bytes
		total = (total + sum) % modulus
	}
	return total, agg, nil
}
