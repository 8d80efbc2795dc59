package bloom_test

import (
	"fmt"

	"pds/internal/bloom"
)

// A page summary answers "might this key be on that page?" in RAM,
// touching flash only on positives.
func Example() {
	summary := bloom.NewPageSummary(3)
	for _, city := range []string{"Lyon", "Paris", "Nice"} {
		summary.Add([]byte(city))
	}
	// The summary is stored marshaled and tested where it lies.
	data, _ := summary.MarshalBinary()
	v, _ := bloom.ViewOf(data)

	fmt.Println(v.Test([]byte("Lyon")))
	fmt.Println(v.Test([]byte("Atlantis")))
	// Output:
	// true
	// false
}
