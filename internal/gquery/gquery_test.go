package gquery

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pds/internal/netsim"
	"pds/internal/ssi"
)

// makeParts builds n participants, each holding tuplesEach tuples over a
// skewed group distribution.
func makeParts(n, tuplesEach int, domain []string, seed int64) []Participant {
	rng := rand.New(rand.NewSource(seed))
	parts := make([]Participant, n)
	for i := range parts {
		parts[i].ID = fmt.Sprintf("pds-%04d", i)
		for j := 0; j < tuplesEach; j++ {
			// Zipf-ish skew: low indexes much more likely.
			g := domain[int(float64(len(domain))*rng.Float64()*rng.Float64())]
			parts[i].Tuples = append(parts[i].Tuples, Tuple{Group: g, Value: int64(rng.Intn(100))})
		}
	}
	return parts
}

var testDomain = []string{"asthma", "diabetes", "flu", "healthy", "hypertension", "migraine"}

func mustKeyring(t testing.TB) *Keyring {
	t.Helper()
	kr, err := KeyringFrom(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	return kr
}

func resultsEqual(a, b Result) bool {
	if len(a) != len(b) {
		return false
	}
	for g, ga := range a {
		if b[g] != ga {
			return false
		}
	}
	return true
}

func freshRun(t testing.TB, mode ssi.Mode, b ssi.Behavior) (*netsim.Network, *ssi.Server) {
	t.Helper()
	net := netsim.New()
	return net, ssi.New(net, mode, b)
}

func TestSecureAggCorrect(t *testing.T) {
	parts := makeParts(20, 5, testDomain, 1)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	res, stats, err := New().SecureAgg(net, srv, parts, mustKeyring(t), 10)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(res, PlainResult(parts)) {
		t.Errorf("secureagg result != plain result\n got %v\nwant %v", res, PlainResult(parts))
	}
	if stats.Detected {
		t.Error("honest run flagged as detected")
	}
	if stats.Chunks != 10 { // 100 tuples / chunk 10
		t.Errorf("chunks = %d, want 10", stats.Chunks)
	}
	if stats.Net.Messages == 0 {
		t.Error("no traffic recorded")
	}
}

// TestSecureAggLeaksNothing: the SSI's view is what reaches it on the
// wire, read off a tap. Every upload record is distinct, across two runs
// over the same data too — non-deterministic encryption leaves the SSI
// nothing to group or to link to an earlier query — and the server
// records no grouping.
func TestSecureAggLeaksNothing(t *testing.T) {
	parts := makeParts(10, 10, testDomain, 2)
	net := netsim.New()
	records := map[string]bool{}
	uploads := 0
	net.Tap(func(e netsim.Envelope) {
		if e.Kind == "tuple" {
			EachUpload(e, func(u netsim.Envelope) bool {
				uploads++
				records[string(u.Payload)] = true
				return true
			})
		}
	})
	for range 2 {
		srv := ssi.New(net, ssi.HonestButCurious, ssi.Behavior{})
		if _, _, err := New().SecureAgg(net, srv, parts, mustKeyring(t), 25); err != nil {
			t.Fatal(err)
		}
		if o := srv.Observations(); len(o.GroupFrequencies) != 0 {
			t.Errorf("secureagg leaked grouping info: %v", o.GroupFrequencies)
		}
	}
	if uploads != 200 || len(records) != uploads {
		t.Errorf("%d distinct upload records of %d, want 200 distinct", len(records), uploads)
	}
}

func TestSecureAggValidation(t *testing.T) {
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	kr := mustKeyring(t)
	if _, _, err := New().SecureAgg(net, srv, nil, kr, 10); !errors.Is(err, ErrNoParticipants) {
		t.Errorf("no participants err = %v", err)
	}
	if _, _, err := New().SecureAgg(net, srv, makeParts(2, 2, testDomain, 3), kr, 0); !errors.Is(err, ErrBadChunkSize) {
		t.Errorf("bad chunk err = %v", err)
	}
}

func TestSecureAggDetectsDrop(t *testing.T) {
	parts := makeParts(10, 5, testDomain, 4)
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.2, Seed: 5})
	_, stats, err := New().SecureAgg(net, srv, parts, mustKeyring(t), 10)
	if !errors.Is(err, ErrDetected) || !stats.Detected {
		t.Errorf("dropping SSI not detected: err=%v stats=%+v", err, stats)
	}
}

func TestSecureAggDetectsDuplicate(t *testing.T) {
	parts := makeParts(10, 5, testDomain, 6)
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{DuplicateRate: 0.3, Seed: 7})
	_, stats, err := New().SecureAgg(net, srv, parts, mustKeyring(t), 10)
	if !errors.Is(err, ErrDetected) || !stats.Detected {
		t.Errorf("duplicating SSI not detected: err=%v stats=%+v", err, stats)
	}
}

func TestSecureAggDetectsForgery(t *testing.T) {
	parts := makeParts(10, 5, testDomain, 8)
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{ForgeRate: 0.3, Seed: 9})
	_, stats, err := New().SecureAgg(net, srv, parts, mustKeyring(t), 10)
	if !errors.Is(err, ErrDetected) {
		t.Errorf("forging SSI not detected: err=%v", err)
	}
	if stats.MACFailures == 0 {
		t.Error("forgeries did not fail MAC verification")
	}
}

func TestNoiseProtocolExactUnderAllKinds(t *testing.T) {
	parts := makeParts(15, 6, testDomain, 10)
	want := PlainResult(parts)
	for _, kind := range []NoiseKind{NoNoise, WhiteNoise, ControlledNoise} {
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		res, stats, err := New().Noise(net, srv, parts, mustKeyring(t), testDomain, 1.5, kind, 11)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !resultsEqual(res, want) {
			t.Errorf("%v: result differs from plain truth", kind)
		}
		if kind == NoNoise && stats.FakeTuples != 0 {
			t.Errorf("NoNoise injected %d fakes", stats.FakeTuples)
		}
		if kind != NoNoise && stats.FakeTuples == 0 {
			t.Errorf("%v injected no fakes", kind)
		}
	}
}

func TestNoiseReducesLeakage(t *testing.T) {
	parts := makeParts(30, 8, testDomain, 12)
	kr := mustKeyring(t)

	leakage := func(noise float64, kind NoiseKind) map[string]int {
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		if _, _, err := New().Noise(net, srv, parts, kr, testDomain, noise, kind, 13); err != nil {
			t.Fatal(err)
		}
		return srv.Observations().GroupFrequencies
	}

	truth := PlainResult(parts)
	noNoise := leakage(0, NoNoise)
	// Without noise the SSI's frequency view matches the true distribution
	// exactly (the leakage the protocol family tries to bound).
	if len(noNoise) != len(truth) {
		t.Fatalf("no-noise groups = %d, truth = %d", len(noNoise), len(truth))
	}
	match := 0
	for _, f := range noNoise {
		for _, g := range truth {
			if int64(f) == g.Count {
				match++
				break
			}
		}
	}
	if match < len(truth) {
		t.Errorf("no-noise frequencies should mirror truth: %d of %d matched", match, len(truth))
	}

	// With controlled noise, observed frequencies must deviate from truth.
	noisy := leakage(2.0, ControlledNoise)
	deviates := false
	truthCounts := map[int64]int{}
	for _, g := range truth {
		truthCounts[g.Count]++
	}
	for _, f := range noisy {
		if truthCounts[int64(f)] == 0 {
			deviates = true
		}
	}
	if !deviates {
		t.Error("controlled noise left the frequency histogram unchanged")
	}
}

func TestNoiseDetectsMisbehaviour(t *testing.T) {
	parts := makeParts(10, 5, testDomain, 14)
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{DropRate: 0.25, Seed: 15})
	_, stats, err := New().Noise(net, srv, parts, mustKeyring(t), testDomain, 1, WhiteNoise, 16)
	if !errors.Is(err, ErrDetected) || !stats.Detected {
		t.Errorf("noise protocol missed dropping SSI: err=%v", err)
	}
}

func TestNoiseNeedsDomain(t *testing.T) {
	parts := makeParts(3, 2, testDomain, 17)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	if _, _, err := New().Noise(net, srv, parts, mustKeyring(t), nil, 1, WhiteNoise, 18); err == nil {
		t.Error("white noise without domain accepted")
	}
	if _, _, err := New().Noise(net, srv, nil, mustKeyring(t), testDomain, 1, NoNoise, 19); !errors.Is(err, ErrNoParticipants) {
		t.Errorf("no participants err = %v", err)
	}
}

func TestNoiseKindString(t *testing.T) {
	if NoNoise.String() != "none" || WhiteNoise.String() != "white" || ControlledNoise.String() != "controlled" {
		t.Error("kind strings wrong")
	}
	if NoiseKind(9).String() != "NoiseKind(9)" {
		t.Error("unknown kind string wrong")
	}
}

func TestEquiDepthBuckets(t *testing.T) {
	freq := map[string]int{"a": 100, "b": 1, "c": 1, "d": 1, "e": 1, "f": 96}
	buckets, err := EquiDepthBuckets([]string{"a", "b", "c", "d", "e", "f"}, freq, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("buckets = %d, want 2", len(buckets))
	}
	// Heavy "a" should sit alone-ish; the split must balance mass.
	if BucketOf(buckets, "a") != 0 || BucketOf(buckets, "f") != 1 {
		t.Errorf("bucket layout: %+v", buckets)
	}
	if BucketOf(buckets, "zzz") != -1 {
		t.Error("out-of-domain group bucketized")
	}
	// Every domain value covered exactly once.
	seen := map[string]int{}
	for _, b := range buckets {
		for _, g := range b.Groups {
			seen[g]++
		}
	}
	for g, n := range seen {
		if n != 1 {
			t.Errorf("group %s in %d buckets", g, n)
		}
	}
	if _, err := EquiDepthBuckets(nil, nil, 2); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := EquiDepthBuckets([]string{"a"}, nil, 0); err == nil {
		t.Error("zero buckets accepted")
	}
}

func TestEquiDepthMoreBucketsThanGroups(t *testing.T) {
	buckets, err := EquiDepthBuckets([]string{"a", "b"}, nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Errorf("clamped buckets = %d, want 2", len(buckets))
	}
}

func TestHistogramBucketTotalsExact(t *testing.T) {
	parts := makeParts(20, 5, testDomain, 20)
	buckets, err := EquiDepthBuckets(testDomain, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	br, stats, err := New().Histogram(net, srv, parts, mustKeyring(t), buckets)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Detected {
		t.Error("honest histogram run flagged")
	}
	// Per-bucket totals must equal the truth aggregated into buckets.
	truth := PlainResult(parts)
	wantPerBucket := map[int]GroupAgg{}
	for g, a := range truth {
		b := BucketOf(buckets, g)
		wantPerBucket[b] = wantPerBucket[b].Merge(a)
	}
	for b, want := range wantPerBucket {
		if br[b] != want {
			t.Errorf("bucket %d = %+v, want %+v", b, br[b], want)
		}
	}
}

func TestHistogramLeaksOnlyBuckets(t *testing.T) {
	parts := makeParts(20, 5, testDomain, 21)
	buckets, _ := EquiDepthBuckets(testDomain, nil, 2)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	if _, _, err := New().Histogram(net, srv, parts, mustKeyring(t), buckets); err != nil {
		t.Fatal(err)
	}
	o := srv.Observations()
	if len(o.GroupFrequencies) > len(buckets) {
		t.Errorf("histogram leaked %d distinct keys for %d buckets", len(o.GroupFrequencies), len(buckets))
	}
}

func TestHistogramAccuracyImprovesWithBuckets(t *testing.T) {
	parts := makeParts(40, 10, testDomain, 22)
	truth := PlainResult(parts)
	kr := mustKeyring(t)

	errFor := func(b int) float64 {
		buckets, err := EquiDepthBuckets(testDomain, nil, b)
		if err != nil {
			t.Fatal(err)
		}
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		br, _, err := New().Histogram(net, srv, parts, kr, buckets)
		if err != nil {
			t.Fatal(err)
		}
		est := EstimateGroups(br, buckets)
		var totalErr float64
		for g, want := range truth {
			got := est[g]
			d := float64(got.Sum - want.Sum)
			if d < 0 {
				d = -d
			}
			totalErr += d
		}
		return totalErr
	}

	e1 := errFor(1)
	eMax := errFor(len(testDomain))
	if eMax != 0 {
		t.Errorf("one group per bucket should be exact, err = %f", eMax)
	}
	if e1 < eMax {
		t.Errorf("coarser histogram should not be more accurate: e1=%f eMax=%f", e1, eMax)
	}
}

func TestHistogramDetectsMisbehaviour(t *testing.T) {
	parts := makeParts(10, 5, testDomain, 23)
	buckets, _ := EquiDepthBuckets(testDomain, nil, 3)
	net, srv := freshRun(t, ssi.WeaklyMalicious, ssi.Behavior{DuplicateRate: 0.3, Seed: 24})
	_, stats, err := New().Histogram(net, srv, parts, mustKeyring(t), buckets)
	if !errors.Is(err, ErrDetected) || !stats.Detected {
		t.Errorf("histogram missed duplicating SSI: err=%v", err)
	}
}

func TestHistogramOutOfDomainGroup(t *testing.T) {
	parts := []Participant{{ID: "p", Tuples: []Tuple{{Group: "unknown", Value: 1}}}}
	buckets, _ := EquiDepthBuckets(testDomain, nil, 2)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	if _, _, err := New().Histogram(net, srv, parts, mustKeyring(t), buckets); err == nil {
		t.Error("out-of-domain group accepted")
	}
}

// TestHistogramBucketIDRange: the bucket id rides as a u16, so a run
// with more buckets than it can name is refused before any upload —
// bucket 65536 would otherwise fold into bucket 0 with a matching
// checksum — while the largest nameable bucket lands where it belongs.
func TestHistogramBucketIDRange(t *testing.T) {
	oneGroupBuckets := func(n int) []Bucket {
		buckets := make([]Bucket, n)
		for i := range buckets {
			g := fmt.Sprintf("g%06d", i)
			buckets[i] = Bucket{Lo: g, Hi: g, Groups: []string{g}}
		}
		return buckets
	}
	tuples := func(buckets []Bucket) []Participant {
		return []Participant{{ID: "p", Tuples: []Tuple{
			{Group: buckets[0].Lo, Value: 100}, {Group: buckets[len(buckets)-1].Lo, Value: 1},
		}}}
	}
	kr := mustKeyring(t)

	over := oneGroupBuckets(maxBuckets + 5)
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	tapped := tapTraffic(net)
	res, stats, err := New().Histogram(net, srv, tuples(over), kr, over)
	if err == nil {
		t.Fatalf("%d buckets accepted: %v", len(over), res)
	}
	if errors.Is(err, ErrDetected) || stats.Net.Messages != 0 || tapped().Messages != 0 {
		t.Fatalf("oversized bucket set not refused up front: err=%v stats=%+v", err, stats)
	}

	full := oneGroupBuckets(maxBuckets)
	net, srv = freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	res, _, err = New().Histogram(net, srv, tuples(full), kr, full)
	if err != nil {
		t.Fatal(err)
	}
	want := BucketResult{0: {Sum: 100, Count: 1, Min: 100, Max: 100}, maxBuckets - 1: {Sum: 1, Count: 1, Min: 1, Max: 1}}
	if fpBuckets(res) != fpBuckets(want) {
		t.Errorf("buckets = %v, want %v", res, want)
	}
}

func TestGroupAggAvg(t *testing.T) {
	if (GroupAgg{Sum: 10, Count: 4}).Avg() != 2.5 {
		t.Error("Avg wrong")
	}
	if (GroupAgg{}).Avg() != 0 {
		t.Error("empty Avg should be 0")
	}
}

func TestResultTotalCount(t *testing.T) {
	r := Result{"a": {Sum: 1, Count: 2}, "b": {Sum: 1, Count: 3}}
	if r.TotalCount() != 5 {
		t.Errorf("TotalCount = %d", r.TotalCount())
	}
}

func TestPartialRoundTrip(t *testing.T) {
	p := partialAgg{IDSum: 42, Count: 7, Aggs: map[string]*GroupAgg{
		"x": {Sum: 10, Count: 2}, "yy": {Sum: -3, Count: 5},
	}}
	got, err := decodePartial(encodePartial(p))
	if err != nil {
		t.Fatal(err)
	}
	if got.IDSum != 42 || got.Count != 7 || len(got.Aggs) != 2 || got.Aggs["yy"].Sum != -3 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decodePartial([]byte{1, 2}); err == nil {
		t.Error("short partial accepted")
	}
}

func TestTuplePlainRoundTrip(t *testing.T) {
	pt := tuplePlain{ID: 99, Group: "grp", Value: -12345, Fake: true}
	got, err := decodeTupleView(encodeTuplePlain(pt))
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != pt.ID || string(got.Group) != pt.Group || got.Value != pt.Value || got.Fake != pt.Fake {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := decodeTupleView([]byte{1}); err == nil {
		t.Error("short tuple accepted")
	}
	if _, err := decodeTupleView(append(encodeTuplePlain(pt), 0)); err == nil {
		t.Error("tuple with a trailing byte accepted")
	}
}

func TestProtocolsComputeMinMax(t *testing.T) {
	parts := []Participant{
		{ID: "a", Tuples: []Tuple{{Group: "g", Value: 50}, {Group: "g", Value: 7}}},
		{ID: "b", Tuples: []Tuple{{Group: "g", Value: 200}, {Group: "h", Value: -3}}},
		{ID: "c", Tuples: []Tuple{{Group: "g", Value: 12}}},
	}
	want := PlainResult(parts)
	if want["g"].Min != 7 || want["g"].Max != 200 || want["h"].Min != -3 {
		t.Fatalf("plain min/max wrong: %+v", want)
	}
	net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
	res, _, err := New().SecureAgg(net, srv, parts, mustKeyring(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res["g"] != want["g"] || res["h"] != want["h"] {
		t.Errorf("secure-agg min/max: got %+v want %+v", res, want)
	}
	if res["g"].Avg() != want["g"].Avg() {
		t.Errorf("avg mismatch")
	}
}

func TestGroupAggFoldMerge(t *testing.T) {
	var g GroupAgg
	g = g.Fold(5)
	g = g.Fold(-2)
	g = g.Fold(9)
	if g != (GroupAgg{Sum: 12, Count: 3, Min: -2, Max: 9}) {
		t.Errorf("fold = %+v", g)
	}
	var empty GroupAgg
	if empty.Merge(g) != g || g.Merge(empty) != g {
		t.Error("merge with empty not identity")
	}
	h := GroupAgg{Sum: 1, Count: 1, Min: 100, Max: 100}
	m := g.Merge(h)
	if m != (GroupAgg{Sum: 13, Count: 4, Min: -2, Max: 100}) {
		t.Errorf("merge = %+v", m)
	}
}

// Metamorphic properties: protocol results must be invariant under
// participant permutation and unaffected by members with nothing to share.
func TestSecureAggInvariantUnderPermutation(t *testing.T) {
	parts := makeParts(12, 4, testDomain, 50)
	kr := mustKeyring(t)
	run := func(ps []Participant) Result {
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		res, _, err := New().SecureAgg(net, srv, ps, kr, 7)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run(parts)
	perm := append([]Participant(nil), parts...)
	rand.New(rand.NewSource(51)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	if !resultsEqual(base, run(perm)) {
		t.Error("result changed under participant permutation")
	}
}

func TestProtocolsIgnoreEmptyParticipants(t *testing.T) {
	parts := makeParts(8, 3, testDomain, 52)
	withEmpty := append(append([]Participant(nil), parts...),
		Participant{ID: "pds-empty-1"}, Participant{ID: "pds-empty-2"})
	kr := mustKeyring(t)
	for name, run := range map[string]func(ps []Participant) (Result, error){
		"secure-agg": func(ps []Participant) (Result, error) {
			net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			r, _, err := New().SecureAgg(net, srv, ps, kr, 5)
			return r, err
		},
		"noise": func(ps []Participant) (Result, error) {
			net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
			r, _, err := New().Noise(net, srv, ps, kr, testDomain, 1, ControlledNoise, 53)
			return r, err
		},
	} {
		a, err := run(parts)
		if err != nil {
			t.Fatalf("%s base: %v", name, err)
		}
		b, err := run(withEmpty)
		if err != nil {
			t.Fatalf("%s with empties: %v", name, err)
		}
		if !resultsEqual(a, b) {
			t.Errorf("%s: empty participants changed the result", name)
		}
	}
}

// Metamorphic: splitting one participant's tuples across two participants
// leaves every aggregate unchanged.
func TestSecureAggInvariantUnderSplit(t *testing.T) {
	parts := makeParts(6, 6, testDomain, 54)
	kr := mustKeyring(t)
	split := append([]Participant(nil), parts[1:]...)
	half := len(parts[0].Tuples) / 2
	split = append(split,
		Participant{ID: "split-a", Tuples: parts[0].Tuples[:half]},
		Participant{ID: "split-b", Tuples: parts[0].Tuples[half:]},
	)
	run := func(ps []Participant) Result {
		net, srv := freshRun(t, ssi.HonestButCurious, ssi.Behavior{})
		r, _, err := New().SecureAgg(net, srv, ps, kr, 9)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if !resultsEqual(run(parts), run(split)) {
		t.Error("splitting a participant changed the aggregate")
	}
}

// encodeTuplePlain encodes one tuple plaintext on its own.
func encodeTuplePlain(t tuplePlain) []byte {
	return appendTuplePlain(make([]byte, 0, tuplePlainLen(t.Group)), t)
}
