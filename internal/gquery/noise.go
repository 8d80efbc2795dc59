package gquery

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strconv"

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

	if len(parts) == 0 {
		return nil, RunStats{}, ErrNoParticipants
	}
	if kind != NoNoise && len(domain) == 0 {
		return nil, RunStats{}, fmt.Errorf("gquery: noise needs a public domain")
	}
	r := newRun(w, srv, parts, kr, cfg, "noise")
	defer r.tp.close()

	// Collection: true tuples first, then fakes, under one id sequence.
	rng := rand.New(rand.NewSource(seed))
	fakesPer := map[string]int{}
	seal := func(buf [][]byte, p Participant) ([][]byte, error) {
		seq := 0
		add := func(group string, value int64, fake bool) error {
			var pt [64]byte
			payload, err := sealNoise(kr, group, appendTuplePlain(pt[:0], tuplePlain{
				ID: ssi.HashID(p.ID, seq), Group: group, Value: value, Fake: fake,
			}))
			seq++
			if err != nil {
				return err
			}
			buf = append(buf, payload)
			return nil
		}
		held := map[string]bool{}
		for _, t := range p.Tuples {
			held[t.Group] = true
			if err := add(t.Group, t.Value, false); err != nil {
				return buf, err
			}
		}
		if kind == NoNoise {
			return buf, nil
		}
		nf := int(noisePerTuple * float64(len(p.Tuples)))
		if rng.Float64() < noisePerTuple*float64(len(p.Tuples))-float64(nf) {
			nf++
		}
		for f := 0; f < nf; f++ {
			g, ok := drawFakeGroup(rng, domain, held, kind)
			if !ok {
				break // domain exhausted for controlled noise
			}
			if err := add(g, 0, true); err != nil {
				return buf, err
			}
			fakesPer[p.ID]++
			r.stats.FakeTuples++
		}
		return buf, nil
	}
	chunks, err := r.collect(1<<30, seal) // one logical batch
	if err != nil {
		return nil, r.stats, err
	}

	// The SSI groups by equal deterministic ciphertext — its whole
	// advantage, and its whole leakage.
	groups := map[string][]netsim.Envelope{}
	var forged []netsim.Envelope
	for _, chunk := range chunks {
		for _, env := range chunk {
			gct, ok := splitNoisePayload(env.Payload)
			if !ok {
				// Malformed: route to a token anyway; it will flag it.
				forged = append(forged, env)
				continue
			}
			srv.ObserveGroup(gct)
			groups[string(gct)] = append(groups[string(gct)], env)
		}
	}
	r.stats.Chunks = len(groups)

	// Aggregation: one token call per observed group, in sorted order so
	// worker assignment and partial folding are deterministic regardless
	// of pool size.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fold, sealP := tupleFold(kr, afterGroupCT, ""), sealedPartial(kr)
	jobs := make([]foldJob, len(keys), len(keys)+1)
	for i, k := range keys {
		jobs[i] = foldJob{kind: "group-chunk", label: strconv.Itoa(i), envs: groups[k], fold: fold, seal: sealP}
	}
	if len(forged) > 0 {
		// Malformed envelopes visit a token without a partial upload: the
		// token's only job is to flag them (its partial rides locally in
		// the flat topology, sealed on demand by the tree reduce).
		jobs = append(jobs, foldJob{kind: "group-chunk", label: "forged", envs: forged, fold: fold})
	}
	leaves, err := r.foldJobs(jobs)
	if err != nil {
		return nil, r.stats, err
	}
	partials, err := r.merge(leaves)
	if err != nil {
		return nil, r.stats, err
	}
	wantID, wantCount := expectedChecksum(parts, fakesPer)
	return r.verdict(partials, wantID, wantCount)
}

// sealNoise seals one noise-protocol upload, the tuple plaintext pt
// under its group: u16 gctLen | Enc_det(group) | Enc_nd(pt).
func sealNoise(kr *Keyring, group string, pt []byte) ([]byte, error) {
	gctLen := len(group) + privcrypto.Overhead
	out := beginSeal(2 + gctLen + len(pt) + privcrypto.Overhead)
	out = binary.LittleEndian.AppendUint16(out, uint16(gctLen))
	out, err := kr.Det.AppendEncrypt(out, []byte(group))
	if err != nil {
		return nil, err
	}
	if out, err = kr.NonDet.AppendEncrypt(out, pt); err != nil {
		return nil, err
	}
	return endSeal(kr, out), nil
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
