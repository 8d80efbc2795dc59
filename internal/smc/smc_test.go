package smc

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"pds/internal/privcrypto"
)

func TestSecureSumCorrect(t *testing.T) {
	vals := []int64{10, 20, 30, 40}
	sum, tr, err := SecureSum(vals, 1000, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 100 {
		t.Errorf("sum = %d, want 100", sum)
	}
	if tr.Messages != len(vals) {
		t.Errorf("messages = %d, want %d (one per ring hop)", tr.Messages, len(vals))
	}
}

func TestSecureSumModular(t *testing.T) {
	sum, _, err := SecureSum([]int64{60, 60, 60}, 100, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 80 {
		t.Errorf("sum mod 100 = %d, want 80", sum)
	}
}

func TestSecureSumValidation(t *testing.T) {
	if _, _, err := SecureSum([]int64{1, 2}, 10, nil); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("2 parties err = %v", err)
	}
	if _, _, err := SecureSum([]int64{1, 2, 3}, 0, nil); !errors.Is(err, ErrBadModulus) {
		t.Errorf("modulus 0 err = %v", err)
	}
	if _, _, err := SecureSum([]int64{1, 2, 30}, 10, nil); !errors.Is(err, ErrValueRange) {
		t.Errorf("range err = %v", err)
	}
	if _, _, err := SecureSum([]int64{1, -1, 3}, 10, nil); !errors.Is(err, ErrValueRange) {
		t.Errorf("negative err = %v", err)
	}
}

// The security property of the ring protocol: the message each
// intermediate party sees is uniformly distributed regardless of the
// inputs, because it is masked by the initiator's fresh random R.
func TestSecureSumIntermediatesMasked(t *testing.T) {
	const m = 16
	const trials = 4000
	buckets := make([]int, m)
	for s := 0; s < trials; s++ {
		_, tr, err := SecureSum([]int64{7, 7, 7}, m, rand.New(rand.NewSource(int64(s))))
		if err != nil {
			t.Fatal(err)
		}
		// Party 1's observation of the masked value.
		buckets[tr.Observations[1][0]]++
	}
	want := trials / m
	for v, n := range buckets {
		if n < want/2 || n > want*2 {
			t.Errorf("masked value %d seen %d times, want ~%d (not uniform)", v, n, want)
		}
	}
}

func TestQuickSecureSum(t *testing.T) {
	f := func(raw []uint16, seed int64) bool {
		if len(raw) < 3 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		const m = int64(1 << 40)
		vals := make([]int64, len(raw))
		var want int64
		for i, v := range raw {
			vals[i] = int64(v)
			want += int64(v)
		}
		sum, _, err := SecureSum(vals, m, rand.New(rand.NewSource(seed)))
		return err == nil && sum == want%m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSecureSumSegmented(t *testing.T) {
	vals := []int64{100, 200, 300, 400, 500}
	sum, tr, err := SecureSumSegmented(vals, 1<<30, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if sum != 1500 {
		t.Errorf("segmented sum = %d, want 1500", sum)
	}
	if tr.Messages != 4*len(vals) {
		t.Errorf("messages = %d, want %d", tr.Messages, 4*len(vals))
	}
	if _, _, err := SecureSumSegmented(vals, 100, 0, nil); err == nil {
		t.Error("segments=0 accepted")
	}
}

func TestCommutativeCipher(t *testing.T) {
	a, err := NewCommutativeCipher(nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCommutativeCipher(nil)
	if err != nil {
		t.Fatal(err)
	}
	x := EncodeItem(123456)
	ab, _ := a.Encrypt(x)
	ab, _ = b.Encrypt(ab)
	ba, _ := b.Encrypt(x)
	ba, _ = a.Encrypt(ba)
	if ab.Cmp(ba) != 0 {
		t.Error("encryption not commutative")
	}
	// Peel in the opposite order.
	y, _ := a.Decrypt(ab)
	y, _ = b.Decrypt(y)
	if DecodeItem(y) != 123456 {
		t.Errorf("round trip = %d", DecodeItem(y))
	}
	if _, err := a.Encrypt(big.NewInt(0)); !errors.Is(err, ErrNotInGroup) {
		t.Errorf("zero element err = %v", err)
	}
	if _, err := a.Decrypt(new(big.Int).Add(groupPrime(), big.NewInt(1))); !errors.Is(err, ErrNotInGroup) {
		t.Errorf("oversize element err = %v", err)
	}
}

func TestSecureSetUnion(t *testing.T) {
	sets := [][]int64{
		{1, 5, 9},
		{5, 7},
		{1, 7, 11},
	}
	union, tr, err := SecureSetUnion(sets)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 5, 7, 9, 11}
	if len(union) != len(want) {
		t.Fatalf("union = %v, want %v", union, want)
	}
	for i := range want {
		if union[i] != want[i] {
			t.Errorf("union = %v, want %v", union, want)
		}
	}
	if tr.Messages == 0 {
		t.Error("no messages traced")
	}
	if _, _, err := SecureSetUnion([][]int64{{1}, {2}}); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("2 parties err = %v", err)
	}
}

func TestSecureSetUnionWithDuplicatesAcrossParties(t *testing.T) {
	sets := [][]int64{{3, 3, 4}, {3}, {4}}
	union, _, err := SecureSetUnion(sets)
	if err != nil {
		t.Fatal(err)
	}
	if len(union) != 2 || union[0] != 3 || union[1] != 4 {
		t.Errorf("union = %v, want [3 4]", union)
	}
}

func TestSecureIntersectionSize(t *testing.T) {
	sets := [][]int64{
		{1, 2, 3, 4},
		{2, 3, 4, 5},
		{3, 4, 5, 6},
	}
	size, _, err := SecureIntersectionSize(sets)
	if err != nil {
		t.Fatal(err)
	}
	if size != 2 { // {3,4}
		t.Errorf("intersection size = %d, want 2", size)
	}
	// Empty intersection.
	size, _, err = SecureIntersectionSize([][]int64{{1}, {2}, {3}})
	if err != nil || size != 0 {
		t.Errorf("disjoint size = %d, %v", size, err)
	}
	if _, _, err := SecureIntersectionSize([][]int64{{1}}); !errors.Is(err, ErrTooFewParties) {
		t.Errorf("1 party err = %v", err)
	}
}

var scalarKey *privcrypto.PaillierPrivateKey

func scalarTestKey(t testing.TB) *privcrypto.PaillierPrivateKey {
	t.Helper()
	if scalarKey == nil {
		k, err := privcrypto.GeneratePaillier(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		scalarKey = k
	}
	return scalarKey
}

func TestScalarProduct(t *testing.T) {
	sk := scalarTestKey(t)
	got, tr, err := ScalarProduct([]int64{1, 2, 3}, []int64{4, 5, 6}, sk)
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Errorf("dot = %d, want 32", got)
	}
	if tr.Messages != 4 { // 3 ciphertexts out + 1 back
		t.Errorf("messages = %d, want 4", tr.Messages)
	}
	if _, _, err := ScalarProduct([]int64{1}, []int64{1, 2}, sk); !errors.Is(err, ErrVectorLength) {
		t.Errorf("length err = %v", err)
	}
	if _, _, err := ScalarProduct(nil, nil, sk); !errors.Is(err, ErrVectorLength) {
		t.Errorf("empty err = %v", err)
	}
	if _, _, err := ScalarProduct([]int64{-1}, []int64{1}, sk); !errors.Is(err, ErrNegative) {
		t.Errorf("negative err = %v", err)
	}
}

func TestQuickScalarProduct(t *testing.T) {
	sk := scalarTestKey(t)
	f := func(a, b []uint8) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		if n > 8 {
			n = 8
		}
		av := make([]int64, n)
		bv := make([]int64, n)
		var want int64
		for i := 0; i < n; i++ {
			av[i], bv[i] = int64(a[i]), int64(b[i])
			want += av[i] * bv[i]
		}
		got, _, err := ScalarProduct(av, bv, sk)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

var millionaireKey *privcrypto.RSAKey

func rsaTestKey(t testing.TB) *privcrypto.RSAKey {
	t.Helper()
	if millionaireKey == nil {
		k, err := privcrypto.GenerateRSA(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		millionaireKey = k
	}
	return millionaireKey
}

func TestMillionaireExhaustive(t *testing.T) {
	key := rsaTestKey(t)
	const domain = 6
	for i := int64(1); i <= domain; i++ {
		for j := int64(1); j <= domain; j++ {
			got, _, err := Millionaire(i, j, domain, key)
			if err != nil {
				t.Fatalf("i=%d j=%d: %v", i, j, err)
			}
			if got != (i >= j) {
				t.Errorf("Millionaire(%d, %d) = %v, want %v", i, j, got, i >= j)
			}
		}
	}
}

func TestMillionaireValidation(t *testing.T) {
	key := rsaTestKey(t)
	for _, c := range [][3]int64{{0, 1, 5}, {1, 0, 5}, {6, 1, 5}, {1, 6, 5}, {1, 1, 0}} {
		if _, _, err := Millionaire(c[0], c[1], c[2], key); err == nil {
			t.Errorf("inputs %v accepted", c)
		}
	}
}

func TestMillionaireCostGrowsWithDomain(t *testing.T) {
	// The tutorial's point: Yao'82 cost is proportional to the domain.
	key := rsaTestKey(t)
	_, tr4, err := Millionaire(2, 2, 4, key)
	if err != nil {
		t.Fatal(err)
	}
	_, tr16, err := Millionaire(2, 2, 16, key)
	if err != nil {
		t.Fatal(err)
	}
	if tr16.Messages <= tr4.Messages {
		t.Errorf("messages: domain 16 = %d, domain 4 = %d; want growth", tr16.Messages, tr4.Messages)
	}
}
