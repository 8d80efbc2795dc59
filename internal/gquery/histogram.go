package gquery

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"

	"pds/internal/netsim"
	tnet "pds/internal/transport"
)

// Bucket is one equi-depth histogram bucket over the (ordered) group
// domain: it covers groups in [Lo, Hi] inclusive.
type Bucket struct {
	Lo, Hi string
	// Groups lists the domain values the bucket covers (public knowledge:
	// the histogram is built from a public approximate distribution).
	Groups []string
}

// EquiDepthBuckets builds b buckets over the domain such that each bucket
// covers roughly the same tuple mass according to the public approximate
// frequency table freq (missing groups count as 1). This is the
// Hacigümüs-style bucketization the tutorial cites.
func EquiDepthBuckets(domain []string, freq map[string]int, b int) ([]Bucket, error) {
	if b < 1 {
		return nil, fmt.Errorf("gquery: bucket count must be >= 1, got %d", b)
	}
	if len(domain) == 0 {
		return nil, fmt.Errorf("gquery: empty domain")
	}
	sorted := append([]string(nil), domain...)
	sort.Strings(sorted)
	if b > len(sorted) {
		b = len(sorted)
	}
	total := 0
	w := func(g string) int {
		f := freq[g]
		if f < 1 {
			f = 1
		}
		return f
	}
	for _, g := range sorted {
		total += w(g)
	}
	target := float64(total) / float64(b)
	var out []Bucket
	cur := Bucket{Lo: sorted[0]}
	mass := 0
	for i, g := range sorted {
		cur.Groups = append(cur.Groups, g)
		cur.Hi = g
		mass += w(g)
		remainingGroups := len(sorted) - i - 1
		remainingBuckets := b - len(out) - 1
		if (float64(mass) >= target && remainingBuckets > 0 && remainingGroups >= remainingBuckets) ||
			remainingGroups == remainingBuckets {
			out = append(out, cur)
			if i+1 < len(sorted) {
				cur = Bucket{Lo: sorted[i+1]}
				mass = 0
			} else {
				cur = Bucket{}
			}
		}
	}
	if len(cur.Groups) > 0 {
		out = append(out, cur)
	}
	return out, nil
}

// BucketOf returns the bucket index covering group, or -1.
func BucketOf(buckets []Bucket, group string) int {
	i := sort.Search(len(buckets), func(i int) bool { return buckets[i].Hi >= group })
	if i == len(buckets) || buckets[i].Lo > group {
		return -1
	}
	return i
}

// BucketResult maps bucket index to its aggregate.
type BucketResult map[int]GroupAgg

// runHistogram executes the histogram-based protocol: each PDS tags its
// (non-deterministically encrypted) tuple with the public bucket id of its
// group; the SSI partitions by bucket id — the only thing it learns — and
// each bucket goes to a token that returns the bucket aggregate. The
// result is coarse: per bucket, not per group (see EstimateGroups). The
// per-bucket token aggregation fans out over cfg.workers concurrent
// tokens, scheduled in bucket-id order so results match the serial run.
func runHistogram(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	buckets []Bucket, cfg config) (BucketResult, RunStats, error) {

	if len(buckets) == 0 {
		return nil, RunStats{}, fmt.Errorf("gquery: no buckets")
	}
	if len(buckets) > maxBuckets {
		return nil, RunStats{}, fmt.Errorf("gquery: %d buckets, at most %d fit the u16 bucket id", len(buckets), maxBuckets)
	}
	r := newRun(w, srv, kr, cfg, "histogram")
	defer r.tp.close()

	// Collection: bucket id rides in clear, everything else encrypted.
	seal := eachTuple(func(t Tuple) int { return tupleRecordLen(2, t.Group) },
		func(dst []byte, id uint64, t Tuple) ([]byte, error) {
			bkt := BucketOf(buckets, t.Group)
			if bkt < 0 {
				return nil, fmt.Errorf("gquery: group %q outside bucketized domain", t.Group)
			}
			var bktID [2]byte
			binary.LittleEndian.PutUint16(bktID[:], uint16(bkt))
			return sealTuple(dst, kr, bktID[:], tuplePlain{ID: id, Group: t.Group, Value: t.Value})
		})
	inbox, err := r.collectAll(parts, seal)
	if err != nil {
		return nil, r.stats, err
	}
	byBucket := map[int][]netsim.Envelope{}
	key := make([]byte, 2) // the observed key, reused: it escapes through Infra
	for _, env := range inbox {
		bkt, ok := peekBucketID(env.Payload)
		if !ok {
			bkt = -1 // malformed → flagged by the token below
		}
		binary.LittleEndian.PutUint16(key, uint16(bkt))
		srv.ObserveGroup(key)
		byBucket[bkt] = append(byBucket[bkt], env)
	}
	r.stats.Chunks = len(byBucket)

	// Aggregation per bucket, in sorted bucket order so folding is
	// deterministic. The bucket aggregate lives in the partial's Aggs map
	// under the bucket id's decimal key, so per-bucket aggregates survive
	// the merge without collapsing into each other.
	ids := make([]int, 0, len(byBucket))
	for bkt := range byBucket {
		ids = append(ids, bkt)
	}
	sort.Ints(ids)
	plane := r.foldPlane()
	for _, bkt := range ids {
		key := strconv.Itoa(bkt)
		plane.submit(foldJob{kind: "bucket-chunk", label: key, envs: byBucket[bkt], fold: tupleFold(kr, afterBucketID, key)})
	}
	res, stats, err := r.fold(plane, nil)
	br := BucketResult{}
	for key, agg := range res {
		// Bucket -1 collects malformed envelopes: flagged by the token,
		// excluded from the result.
		if bkt, err := strconv.Atoi(key); err == nil && bkt >= 0 {
			br[bkt] = agg
		}
	}
	return br, stats, err
}

// maxBuckets is the most buckets a u16 bucket id can name: 0xFFFF stays
// the key the SSI observes for a malformed envelope (bucket -1).
const maxBuckets = 0xFFFF

// peekBucketID extracts the clear bucket id the SSI partitions on.
func peekBucketID(payload []byte) (int, bool) {
	if len(payload) < 2+2+32 {
		return 0, false
	}
	n := int(binary.LittleEndian.Uint16(payload[:2]))
	if len(payload) != 2+n+32 || n < 2 {
		return 0, false
	}
	return int(binary.LittleEndian.Uint16(payload[2:4])), true
}

// EstimateGroups expands a bucket-level result into per-group estimates
// under the uniform-within-bucket assumption — the accuracy/leakage
// trade-off knob of the histogram protocol: more buckets, better accuracy,
// more leakage.
func EstimateGroups(br BucketResult, buckets []Bucket) Result {
	out := Result{}
	for i, b := range buckets {
		agg, ok := br[i]
		if !ok || len(b.Groups) == 0 {
			continue
		}
		n := int64(len(b.Groups))
		for j, g := range b.Groups {
			// Min/Max inherit the bucket's bounds: valid (if loose)
			// bounds for every covered group.
			share := GroupAgg{Sum: agg.Sum / n, Count: agg.Count / n, Min: agg.Min, Max: agg.Max}
			if int64(j) < agg.Count%n {
				share.Count++
			}
			if int64(j) < agg.Sum%n {
				share.Sum++
			}
			out[g] = share
		}
	}
	return out
}
