package gquery

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"pds/internal/netsim"
	"pds/internal/privcrypto"
	"pds/internal/ssi"
	tnet "pds/internal/transport"
)

// NoiseKind selects how fake tuples are drawn in the noise-based protocol.
type NoiseKind int

// Noise strategies from [TNP14].
const (
	// NoNoise sends only true tuples: the SSI observes the exact group
	// frequency distribution (maximum leakage, minimum cost).
	NoNoise NoiseKind = iota
	// WhiteNoise draws fake groups uniformly from the whole domain.
	WhiteNoise
	// ControlledNoise draws fake groups from the complementary domain —
	// groups the participant does NOT hold — which flattens the observed
	// distribution faster per fake tuple.
	ControlledNoise
)

func (k NoiseKind) String() string {
	switch k {
	case NoNoise:
		return "none"
	case WhiteNoise:
		return "white"
	case ControlledNoise:
		return "controlled"
	default:
		return fmt.Sprintf("NoiseKind(%d)", int(k))
	}
}

// runNoise executes the noise-based protocol (deterministic encryption +
// fake tuples): the grouping attribute travels under deterministic
// encryption so the SSI groups equal values itself — no worker tokens are
// needed for partitioning — while each group's measure ciphertexts go to a
// token that discards fakes and aggregates. noisePerTuple fakes are
// injected per true tuple (fractional values are rounded stochastically).
// Results are exact; leakage is the noised frequency histogram. The
// per-group token aggregation fans out over cfg.workers concurrent
// tokens; groups are scheduled in sorted deterministic order and partials
// folded in that order, so results match the serial run.
func runNoise(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	domain []string, noisePerTuple float64, kind NoiseKind, seed int64, cfg config) (Result, RunStats, error) {

	if kind != NoNoise && len(domain) == 0 {
		return nil, RunStats{}, fmt.Errorf("gquery: noise needs a public domain")
	}
	r := newRun(w, srv, kr, cfg, "noise")
	defer r.tp.close()

	// Collection: true tuples first, then fakes, under one id sequence.
	// Every fake group is drawn before the first record is sealed, so the
	// frame is sized exactly.
	rng := rand.New(rand.NewSource(seed))
	var fakes []string // one participant's fake groups, reused across participants
	seal := func(dst []byte, p Participant) ([]byte, int, uint64, error) {
		held := map[string]bool{}
		n := 0
		for _, t := range p.Tuples {
			held[t.Group] = true
			n += noiseRecordLen(t.Group)
		}
		fakes = fakes[:0]
		if kind != NoNoise {
			nf := int(noisePerTuple * float64(len(p.Tuples)))
			if rng.Float64() < noisePerTuple*float64(len(p.Tuples))-float64(nf) {
				nf++
			}
			for ; nf > 0; nf-- {
				g, ok := drawFakeGroup(rng, domain, held, kind)
				if !ok {
					break // domain exhausted for controlled noise
				}
				fakes = append(fakes, g)
				n += noiseRecordLen(g)
			}
		}
		frame := slices.Grow(dst, n)
		var idSum uint64
		var err error
		for seq, t := range p.Tuples {
			id := ssi.HashID(p.ID, seq)
			if frame, err = sealNoise(frame, kr, tuplePlain{ID: id, Group: t.Group, Value: t.Value}); err != nil {
				return nil, 0, 0, err
			}
			idSum += id
		}
		for i, g := range fakes {
			id := ssi.HashID(p.ID, len(p.Tuples)+i)
			if frame, err = sealNoise(frame, kr, tuplePlain{ID: id, Group: g, Fake: true}); err != nil {
				return nil, 0, 0, err
			}
			idSum += id
		}
		r.stats.FakeTuples += len(fakes)
		return frame, len(p.Tuples) + len(fakes), idSum, nil
	}
	inbox, err := r.collectAll(parts, seal)
	if err != nil {
		return nil, r.stats, err
	}

	// The SSI groups by equal deterministic ciphertext — its whole
	// advantage, and its whole leakage. Each group's ciphertext becomes a
	// key string once, at its first envelope: group[k] indexes envs.
	group := map[string]int{}
	var keys []string
	var envs [][]netsim.Envelope
	var forged []netsim.Envelope
	for _, env := range inbox {
		gct, ok := splitNoisePayload(env.Payload)
		if !ok {
			// Malformed: route to a token anyway; it will flag it.
			forged = append(forged, env)
			continue
		}
		srv.ObserveGroup(gct)
		i, ok := group[string(gct)]
		if !ok {
			i = len(envs)
			k := string(gct)
			group[k] = i
			keys = append(keys, k)
			envs = append(envs, nil)
		}
		envs[i] = append(envs[i], env)
	}
	r.stats.Chunks = len(keys)

	// Aggregation: one token per observed group, in sorted order so
	// worker assignment and partial folding are deterministic regardless
	// of pool size.
	sort.Strings(keys)
	fold := tupleFold(kr, afterGroupCT, "")
	plane := r.foldPlane()
	for _, k := range keys {
		plane.submit(foldJob{kind: "group-chunk", envs: envs[group[k]], fold: fold})
	}
	if len(forged) > 0 {
		// Malformed envelopes visit a token too, whose job is to flag
		// them; its partial joins the merge like any other.
		plane.submit(foldJob{kind: "group-chunk", label: "forged", envs: forged, fold: fold})
	}
	return r.fold(plane, nil)
}

// noiseRecordLen is the frame space of one sealNoise record of group.
func noiseRecordLen(group string) int {
	gctLen := len(group) + privcrypto.Overhead
	return recordPrefix + sealedLen(2+gctLen+tuplePlainLen(group)+privcrypto.Overhead)
}

// sealNoise appends one noise-protocol upload to its PDS's upload frame
// as a record, the tuple under its group: u16 gctLen | Enc_det(group) |
// Enc_nd(plaintext), the plaintext encoded on the stack. A frame sized
// by noiseRecordLen never grows.
func sealNoise(dst []byte, kr *Keyring, t tuplePlain) ([]byte, error) {
	var buf [64]byte
	pt := appendTuplePlain(buf[:0], t)
	gctLen := len(t.Group) + privcrypto.Overhead
	bodyLen := 2 + gctLen + len(pt) + privcrypto.Overhead
	dst, at := beginRecord(slices.Grow(dst, noiseRecordLen(t.Group)))
	dst = binary.LittleEndian.AppendUint16(beginSeal(dst, bodyLen), uint16(gctLen))
	dst, err := kr.Det.AppendEncrypt(dst, []byte(t.Group))
	if err != nil {
		return nil, err
	}
	if dst, err = kr.NonDet.AppendEncrypt(dst, pt); err != nil {
		return nil, err
	}
	return endRecord(endSeal(kr, dst, bodyLen), at), nil
}

// splitNoisePayload extracts the deterministic group ciphertext from a
// sealed noise-protocol payload without verifying it (that is all the SSI
// can do: it has no keys).
func splitNoisePayload(payload []byte) ([]byte, bool) {
	if len(payload) < 2+2+32 {
		return nil, false
	}
	// sealed: u16 ctLen | body | mac — body: u16 gctLen | gct | vct.
	n := int(binary.LittleEndian.Uint16(payload[:2]))
	if len(payload) != 2+n+32 || n < 2 {
		return nil, false
	}
	body := payload[2 : 2+n]
	gl := int(binary.LittleEndian.Uint16(body[:2]))
	if 2+gl > len(body) {
		return nil, false
	}
	return body[2 : 2+gl], true
}

// drawFakeGroup picks a fake group per the noise kind.
func drawFakeGroup(rng *rand.Rand, domain []string, held map[string]bool, kind NoiseKind) (string, bool) {
	if kind == WhiteNoise {
		return domain[rng.Intn(len(domain))], true
	}
	// Controlled: from the complement of the participant's groups — the
	// k-th domain value not held, k uniform over the complement's size.
	n := 0
	for _, g := range domain {
		if !held[g] {
			n++
		}
	}
	if n == 0 {
		return "", false
	}
	k := rng.Intn(n)
	for _, g := range domain {
		if held[g] {
			continue
		}
		if k == 0 {
			return g, true
		}
		k--
	}
	return "", false // not reached: k < n
}
