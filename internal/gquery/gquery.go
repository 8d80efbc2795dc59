// Package gquery implements the tutorial's Part III example: executing SQL
// aggregate queries (GROUP BY with SUM/COUNT/AVG) over the data of many
// Personal Data Servers through an untrusted Supporting Server
// Infrastructure, following the [TNP14] protocol family:
//
//   - SecureAgg: tuples are encrypted non-deterministically; the SSI can
//     only partition blindly, and participant tokens are reused as workers
//     to aggregate partitions, merging up to a final token. The SSI learns
//     only counts and sizes.
//   - Noise-based: the grouping attribute is encrypted deterministically,
//     letting the SSI group equal values itself; fake tuples (white noise
//     or noise controlled by the complementary domain) hide the true
//     frequency distribution. Tokens discard fakes, so results are exact.
//   - Histogram-based (à la Hacigümüs): groups are mapped to equi-depth
//     buckets; the SSI sees only bucket ids, and aggregation is per
//     bucket, trading accuracy for leakage.
//
// All protocols authenticate envelopes with token-shared MACs and verify a
// tuple-id checksum at the final merge, so a weakly-malicious SSI that
// drops, duplicates or forges envelopes is detected (deterrence of the
// covert adversary).
package gquery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"pds/internal/netsim"
	"pds/internal/obs"
	"pds/internal/privcrypto"
	"pds/internal/ssi"
)

// Tuple is one (grouping attribute, measure) pair held by a PDS.
type Tuple struct {
	Group string
	Value int64
}

// GroupAgg is the aggregate of one group: COUNT, SUM, MIN and MAX are
// maintained (AVG derives from the first two), so the protocols answer the
// full SQL aggregate set of the tutorial's Part III example.
type GroupAgg struct {
	Sum   int64
	Count int64
	Min   int64
	Max   int64
}

// Avg returns the mean (0 for an empty group).
func (g GroupAgg) Avg() float64 {
	if g.Count == 0 {
		return 0
	}
	return float64(g.Sum) / float64(g.Count)
}

// Fold returns g with one more value accumulated.
func (g GroupAgg) Fold(v int64) GroupAgg {
	if g.Count == 0 {
		g.Min, g.Max = v, v
	} else {
		if v < g.Min {
			g.Min = v
		}
		if v > g.Max {
			g.Max = v
		}
	}
	g.Count++
	g.Sum += v
	return g
}

// Merge combines two partial aggregates of the same group.
func (g GroupAgg) Merge(o GroupAgg) GroupAgg {
	if o.Count == 0 {
		return g
	}
	if g.Count == 0 {
		return o
	}
	g.Count += o.Count
	g.Sum += o.Sum
	if o.Min < g.Min {
		g.Min = o.Min
	}
	if o.Max > g.Max {
		g.Max = o.Max
	}
	return g
}

// Result maps group values to their aggregates.
type Result map[string]GroupAgg

// TotalCount returns the number of tuples aggregated.
func (r Result) TotalCount() int64 {
	var n int64
	for _, g := range r {
		n += g.Count
	}
	return n
}

// Participant is one PDS taking part in a global query.
type Participant struct {
	ID     string
	Tuples []Tuple
}

// Keyring holds the symmetric secrets shared by the (certified) tokens and
// unknown to the SSI.
type Keyring struct {
	Det    *privcrypto.DetCipher
	NonDet *privcrypto.NonDetCipher
	MACKey []byte

	// The keyed state of MACKey, bound on first use so a Keyring written
	// as a literal works like one from KeyringFrom.
	macOnce sync.Once
	mac     *privcrypto.KeyedMAC
}

// keyed returns the envelope MAC with MACKey's schedule set up once.
func (kr *Keyring) keyed() *privcrypto.KeyedMAC {
	kr.macOnce.Do(func() { kr.mac = privcrypto.NewKeyedMAC(kr.MACKey) })
	return kr.mac
}

// NewKeyring draws fresh token-shared keys.
func NewKeyring() (*Keyring, error) {
	master, err := privcrypto.NewKey()
	if err != nil {
		return nil, err
	}
	return KeyringFrom(master)
}

// KeyringFrom derives the keyring deterministically from a master key
// (what the token issuer provisions).
func KeyringFrom(master []byte) (*Keyring, error) {
	det, err := privcrypto.NewDetCipher(master)
	if err != nil {
		return nil, err
	}
	nd, err := privcrypto.NewNonDetCipher(master)
	if err != nil {
		return nil, err
	}
	return &Keyring{Det: det, NonDet: nd, MACKey: privcrypto.MAC(master, []byte("gquery-mac"))}, nil
}

// RunStats reports the cost and integrity outcome of a protocol run.
type RunStats struct {
	Net         netsim.Stats
	Chunks      int
	WorkerCalls int
	// Detected is set when token-side checks caught SSI misbehaviour.
	Detected    bool
	MACFailures int
	// FakeTuples counts injected noise tuples (noise protocol only).
	FakeTuples int

	// Reliability-layer cost, nonzero only when WithFaults armed the
	// fault plane: the price the token fleet paid to complete exactly
	// despite the injected faults.
	Retransmits  int           // extra wire attempts beyond the first
	AckMessages  int           // acknowledgement frames received
	TagFailures  int           // frames rejected by the transport integrity tag
	RetryBackoff time.Duration // simulated time spent backing off between retries

	// Tree-topology shape, zero under Flat(): how many fold levels the
	// partials climbed (leaf level included) and how many interior token
	// folds the tree spent doing it.
	TreeDepth int
	TreeNodes int

	// CriticalPath is the critical-path report over the run's span tree:
	// longest dependency chain vs. parallel slack, broken down by phase.
	CriticalPath obs.CriticalPath
}

// Protocol errors.
var (
	ErrDetected       = errors.New("gquery: SSI misbehaviour detected")
	ErrNoParticipants = errors.New("gquery: no participants")
	ErrBadChunkSize   = errors.New("gquery: chunk size must be >= 1")
)

// DetectionError is the typed abort of a run whose token-side integrity
// checks caught SSI misbehaviour: the protocols either complete with the
// exact answer or fail with one of these — never a silently wrong result.
// errors.Is(err, ErrDetected) matches it; errors.As extracts the detail.
type DetectionError struct {
	Protocol    string // "secure-agg", "noise", "histogram" or "paillier"
	Reason      string // "mac-failure" or "checksum-mismatch"
	MACFailures int
}

func (e *DetectionError) Error() string {
	return fmt.Sprintf("gquery: %s protocol detected SSI misbehaviour (%s, %d MAC failures)",
		e.Protocol, e.Reason, e.MACFailures)
}

// Is makes errors.Is(err, ErrDetected) match.
func (e *DetectionError) Is(target error) bool { return target == ErrDetected }

// detectionError builds the typed detection abort for a finished run.
func detectionError(protocol string, stats RunStats) *DetectionError {
	reason := "checksum-mismatch"
	if stats.MACFailures > 0 {
		reason = "mac-failure"
	}
	return &DetectionError{Protocol: protocol, Reason: reason, MACFailures: stats.MACFailures}
}

// --- wire encodings -------------------------------------------------------

// tuplePlain is the plaintext a PDS encrypts: id | group | value | fake.
type tuplePlain struct {
	ID    uint64
	Group string
	Value int64
	Fake  bool
}

// tuplePlainLen is the encoded length of a tuple plaintext of group.
func tuplePlainLen(group string) int { return 8 + 2 + len(group) + 8 + 1 }

func encodeTuplePlain(t tuplePlain) []byte {
	return appendTuplePlain(make([]byte, 0, tuplePlainLen(t.Group)), t)
}

func appendTuplePlain(out []byte, t tuplePlain) []byte {
	out = binary.LittleEndian.AppendUint64(out, t.ID)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(t.Group)))
	out = append(out, t.Group...)
	out = binary.LittleEndian.AppendUint64(out, uint64(t.Value))
	if t.Fake {
		return append(out, 1)
	}
	return append(out, 0)
}

func decodeTuplePlain(data []byte) (tuplePlain, error) {
	if len(data) < 8+2+8+1 {
		return tuplePlain{}, fmt.Errorf("gquery: short tuple plaintext (%d)", len(data))
	}
	id := binary.LittleEndian.Uint64(data[:8])
	gl := int(binary.LittleEndian.Uint16(data[8:10]))
	if len(data) != 8+2+gl+8+1 {
		return tuplePlain{}, fmt.Errorf("gquery: corrupt tuple plaintext")
	}
	group := string(data[10 : 10+gl])
	val := int64(binary.LittleEndian.Uint64(data[10+gl : 18+gl]))
	return tuplePlain{ID: id, Group: group, Value: val, Fake: data[18+gl] == 1}, nil
}

// A sealed payload wraps a body with a MAC: u16 bodyLen | body | mac(32).
// Senders build it in place at the end of a buffer: beginSeal writes the
// length, the body is appended, endSeal appends the MAC over it.
func sealedLen(bodyLen int) int { return 2 + bodyLen + 32 }

func beginSeal(dst []byte, bodyLen int) []byte {
	return binary.LittleEndian.AppendUint16(dst, uint16(bodyLen))
}

func endSeal(kr *Keyring, dst []byte, bodyLen int) []byte {
	return kr.keyed().Sum(dst, dst[len(dst)-bodyLen:])
}

// appendSealNonDet appends the sealed prefix | Enc_nd(pt) to dst.
func appendSealNonDet(dst []byte, kr *Keyring, prefix, pt []byte) ([]byte, error) {
	bodyLen := len(prefix) + len(pt) + privcrypto.Overhead
	dst = append(beginSeal(dst, bodyLen), prefix...)
	dst, err := kr.NonDet.AppendEncrypt(dst, pt)
	if err != nil {
		return nil, err
	}
	return endSeal(kr, dst, bodyLen), nil
}

// sealNonDet seals prefix | Enc_nd(pt) into a buffer of its own.
func sealNonDet(kr *Keyring, prefix, pt []byte) ([]byte, error) {
	return appendSealNonDet(make([]byte, 0, sealedLen(len(prefix)+len(pt)+privcrypto.Overhead)), kr, prefix, pt)
}

// tupleRecordLen is the frame space of one sealTuple record: prefixLen
// clear routing bytes plus the encrypted plaintext of a tuple of group.
func tupleRecordLen(prefixLen int, group string) int {
	return recordPrefix + sealedLen(prefixLen+tuplePlainLen(group)+privcrypto.Overhead)
}

// sealTuple appends one tuple upload to its PDS's upload frame as a
// record: prefix is the protocol's clear routing part, if any, and the
// plaintext is encoded on the stack (a group too long for the buffer
// spills to the heap). A frame sized by tupleRecordLen never grows.
func sealTuple(dst []byte, kr *Keyring, prefix []byte, t tuplePlain) ([]byte, error) {
	var buf [64]byte
	dst, at := beginRecord(slices.Grow(dst, tupleRecordLen(len(prefix), t.Group)))
	dst, err := appendSealNonDet(dst, kr, prefix, appendTuplePlain(buf[:0], t))
	if err != nil {
		return nil, err
	}
	return endRecord(dst, at), nil
}

// open verifies and unwraps a sealed payload.
func open(kr *Keyring, payload []byte) ([]byte, error) {
	if len(payload) < 2+32 {
		return nil, fmt.Errorf("gquery: short sealed payload")
	}
	n := int(binary.LittleEndian.Uint16(payload[:2]))
	if len(payload) != 2+n+32 {
		return nil, fmt.Errorf("gquery: corrupt sealed payload")
	}
	ct := payload[2 : 2+n]
	if !kr.keyed().Verify(ct, payload[2+n:]) {
		return nil, privcrypto.ErrAuthentication
	}
	return ct, nil
}

// partialAgg is what a worker token returns: consumed tuple-id checksum,
// consumed count, and per-group aggregates of the real tuples.
type partialAgg struct {
	IDSum uint64
	Count int64
	Aggs  map[string]GroupAgg
}

func encodePartial(p partialAgg) []byte {
	out := make([]byte, 0, 8+8+4)
	var b8 [8]byte
	binary.LittleEndian.PutUint64(b8[:], p.IDSum)
	out = append(out, b8[:]...)
	binary.LittleEndian.PutUint64(b8[:], uint64(p.Count))
	out = append(out, b8[:]...)
	var b4 [4]byte
	binary.LittleEndian.PutUint32(b4[:], uint32(len(p.Aggs)))
	out = append(out, b4[:]...)
	for g, a := range p.Aggs {
		var b2 [2]byte
		binary.LittleEndian.PutUint16(b2[:], uint16(len(g)))
		out = append(out, b2[:]...)
		out = append(out, g...)
		for _, v := range [4]int64{a.Sum, a.Count, a.Min, a.Max} {
			binary.LittleEndian.PutUint64(b8[:], uint64(v))
			out = append(out, b8[:]...)
		}
	}
	return out
}

func decodePartial(data []byte) (partialAgg, error) {
	if len(data) < 20 {
		return partialAgg{}, fmt.Errorf("gquery: short partial aggregate")
	}
	p := partialAgg{
		IDSum: binary.LittleEndian.Uint64(data[:8]),
		Count: int64(binary.LittleEndian.Uint64(data[8:16])),
		Aggs:  map[string]GroupAgg{},
	}
	n := int(binary.LittleEndian.Uint32(data[16:20]))
	off := 20
	for i := 0; i < n; i++ {
		if off+2 > len(data) {
			return partialAgg{}, fmt.Errorf("gquery: corrupt partial aggregate")
		}
		gl := int(binary.LittleEndian.Uint16(data[off : off+2]))
		off += 2
		if off+gl+32 > len(data) {
			return partialAgg{}, fmt.Errorf("gquery: corrupt partial aggregate")
		}
		g := string(data[off : off+gl])
		off += gl
		var vals [4]int64
		for i := range vals {
			vals[i] = int64(binary.LittleEndian.Uint64(data[off : off+8]))
			off += 8
		}
		p.Aggs[g] = GroupAgg{Sum: vals[0], Count: vals[1], Min: vals[2], Max: vals[3]}
	}
	if off != len(data) {
		return partialAgg{}, fmt.Errorf("gquery: trailing bytes in partial aggregate")
	}
	return p, nil
}

// expectedChecksum is what the final token knows a complete, untampered
// run must sum to: every participant registered its tuple count with the
// querier, so ids are reconstructible.
func expectedChecksum(parts []Participant, fakesPer map[string]int) (uint64, int64) {
	var idSum uint64
	var count int64
	for _, p := range parts {
		n := len(p.Tuples) + fakesPer[p.ID]
		for seq := 0; seq < n; seq++ {
			idSum += ssi.HashID(p.ID, seq)
		}
		count += int64(n)
	}
	return idSum, count
}

// PlainResult computes the ground-truth aggregate directly — the reference
// all protocol results are compared against.
func PlainResult(parts []Participant) Result {
	res := Result{}
	for _, p := range parts {
		for _, t := range p.Tuples {
			res[t.Group] = res[t.Group].Fold(t.Value)
		}
	}
	return res
}
