package bloom

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// has reports whether key may be in f: the answer a View of f's encoding
// gives.
func has(f *Filter, key string) bool { return testBits(f.bits, f.m, f.k, []byte(key)) }

func addAll(f *Filter, format string, n int) {
	for i := 0; i < n; i++ {
		f.Add([]byte(fmt.Sprintf(format, i)))
	}
}

// viewOf marshals f and views the encoding, as a summary scan reads it.
func viewOf(t testing.TB, f *Filter) View {
	t.Helper()
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	v, err := ViewOf(data)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestNoFalseNegatives(t *testing.T) {
	f := NewPageSummaryBits(1000, 10)
	addAll(f, "key-%d", 1000)
	for i := 0; i < 1000; i++ {
		if !has(f, fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
	if f.n != 1000 {
		t.Errorf("added = %d", f.n)
	}
}

func TestFalsePositiveRate(t *testing.T) {
	// 10 bits per key at k = 7: about 0.8 % in theory.
	n := 2000
	f := NewPageSummaryBits(n, 10)
	addAll(f, "member-%d", n)
	fp := 0
	probes := 20000
	for i := 0; i < probes; i++ {
		if has(f, fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / float64(probes)
	if rate > 0.03 {
		t.Errorf("false positive rate %.4f, want <= 0.03 (theory 0.008)", rate)
	}
}

func TestPageSummaryBudget(t *testing.T) {
	// The paper's summary budget: ~2 bytes per key.
	keys := 100
	f := NewPageSummary(keys)
	if f.m != uint32(16*keys) {
		t.Errorf("bits = %d, want %d", f.m, 16*keys)
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	perKey := float64(len(data)-12) / float64(keys)
	if perKey != 2 {
		t.Errorf("bytes per key = %.2f, want 2", perKey)
	}
	addAll(f, "k%d", keys)
	// At 16 bits/key with k=6 the FP rate must be well under 1%.
	fp := 0
	for i := 0; i < 10000; i++ {
		if has(f, fmt.Sprintf("absent%d", i)) {
			fp++
		}
	}
	if rate := float64(fp) / 10000; rate > 0.01 {
		t.Errorf("page summary FP rate %.4f, want < 0.01", rate)
	}
}

func TestEmptyFilter(t *testing.T) {
	if viewOf(t, New(64, 3)).Test([]byte("anything")) {
		t.Error("empty filter claims membership")
	}
}

func TestDegenerateParams(t *testing.T) {
	f := New(0, 0) // clamped
	f.Add([]byte("x"))
	if !viewOf(t, f).Test([]byte("x")) {
		t.Error("clamped filter lost key")
	}
	if NewPageSummary(0).m != 16 {
		t.Error("NewPageSummary(0) not clamped to 1 key")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := NewPageSummaryBits(100, 10)
	addAll(f, "k%d", 100)
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 12+len(f.bits) {
		t.Errorf("marshaled len %d, want %d", len(data), 12+len(f.bits))
	}
	v, err := ViewOf(data)
	if err != nil {
		t.Fatal(err)
	}
	if int(v.n) != f.n || v.m != f.m || v.k != f.k {
		t.Errorf("metadata mismatch after round trip")
	}
	for i := 0; i < 100; i++ {
		if !v.Test([]byte(fmt.Sprintf("k%d", i))) {
			t.Fatalf("false negative after round trip: k%d", i)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 5),
		make([]byte, 12),                     // m=0
		{8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, // missing bits
		{8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF}, // extra bits
	}
	for i, c := range cases {
		if _, err := ViewOf(c); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: corrupt input accepted (err %v)", i, err)
		}
	}
}

// Property: membership is preserved for every inserted key set.
func TestQuickMembership(t *testing.T) {
	f := func(keys []string) bool {
		fl := NewPageSummaryBits(len(keys)+1, 10)
		for _, k := range keys {
			fl.Add([]byte(k))
		}
		for _, k := range keys {
			if !has(fl, k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: marshal then view is the identity on membership.
func TestQuickMarshalIdentity(t *testing.T) {
	f := func(keys []string, probe string) bool {
		fl := NewPageSummaryBits(len(keys)+1, 10)
		for _, k := range keys {
			fl.Add([]byte(k))
		}
		data, err := fl.MarshalBinary()
		if err != nil {
			return false
		}
		v, err := ViewOf(data)
		if err != nil {
			return false
		}
		return v.Test([]byte(probe)) == has(fl, probe)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewPageSummaryBits(t *testing.T) {
	for _, bits := range []int{1, 2, 8, 16, 64} {
		f := NewPageSummaryBits(100, bits)
		if f.m != uint32(bits*100) {
			t.Errorf("bits/key=%d: bits=%d", bits, f.m)
		}
		addAll(f, "k%d", 100)
		for i := 0; i < 100; i++ {
			if !has(f, fmt.Sprintf("k%d", i)) {
				t.Fatalf("bits/key=%d: false negative", bits)
			}
		}
	}
	// Clamps.
	if NewPageSummaryBits(0, 0).m < 8 {
		t.Error("degenerate params not clamped")
	}
}

func TestSummaryBitsMonotoneFPRate(t *testing.T) {
	rate := func(bits int) float64 {
		f := NewPageSummaryBits(500, bits)
		addAll(f, "member%d", 500)
		fp := 0
		for i := 0; i < 5000; i++ {
			if has(f, fmt.Sprintf("absent%d", i)) {
				fp++
			}
		}
		return float64(fp) / 5000
	}
	r2, r8, r16 := rate(2), rate(8), rate(16)
	if !(r2 > r8 && r8 >= r16) {
		t.Errorf("FP rates not monotone: %f %f %f", r2, r8, r16)
	}
}
