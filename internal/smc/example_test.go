package smc_test

import (
	"fmt"
	"math/rand"

	"pds/internal/netsim"
	"pds/internal/smc"
)

// Three parties learn the sum of their private values and nothing else:
// every message on the ring is masked by the initiator's random offset.
func ExampleSecureSum() {
	incomes := []int64{48000, 52000, 61000}
	sum, _, err := smc.SecureSum(netsim.New(), incomes, 1<<40, rand.New(rand.NewSource(1)), nil)
	if err != nil {
		panic(err)
	}
	fmt.Println(sum)
	// Output:
	// 161000
}
