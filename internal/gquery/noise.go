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

	var stats RunStats
	if len(parts) == 0 {
		return nil, stats, ErrNoParticipants
	}
	if kind != NoNoise && len(domain) == 0 {
		return nil, stats, fmt.Errorf("gquery: noise needs a public domain")
	}
	rng := rand.New(rand.NewSource(seed))
	fakesPer := map[string]int{}
	tp := newTransport(w, cfg, "noise")
	defer tp.close()

	// Collection: true tuples first, then fakes, under one id sequence.
	for _, p := range parts {
		seq := 0
		send := func(group string, value int64, fake bool) error {
			var buf [64]byte
			pt := appendTuplePlain(buf[:0], tuplePlain{
				ID:    ssi.HashID(p.ID, seq),
				Group: group,
				Value: value,
				Fake:  fake,
			})
			seq++
			// Sealed body: u16 gctLen | Enc_det(group) | Enc_nd(tuple).
			gctLen := len(group) + privcrypto.Overhead
			out := beginSeal(2 + gctLen + len(pt) + privcrypto.Overhead)
			out = binary.LittleEndian.AppendUint16(out, uint16(gctLen))
			out, err := kr.Det.AppendEncrypt(out, []byte(group))
			if err != nil {
				return err
			}
			if out, err = kr.NonDet.AppendEncrypt(out, pt); err != nil {
				return err
			}
			return tp.send(netsim.Envelope{
				From: p.ID, To: srv.Dest(p.ID), Kind: "tuple", Payload: endSeal(kr, out),
			}, srv.Receive)
		}
		held := map[string]bool{}
		for _, t := range p.Tuples {
			held[t.Group] = true
			if err := send(t.Group, t.Value, false); err != nil {
				return nil, stats, err
			}
		}
		if kind != NoNoise {
			nf := int(noisePerTuple * float64(len(p.Tuples)))
			if rng.Float64() < noisePerTuple*float64(len(p.Tuples))-float64(nf) {
				nf++
			}
			for f := 0; f < nf; f++ {
				g, ok := drawFakeGroup(rng, domain, held, kind)
				if !ok {
					break // domain exhausted for controlled noise
				}
				if err := send(g, 0, true); err != nil {
					return nil, stats, err
				}
				fakesPer[p.ID]++
				stats.FakeTuples++
			}
		}
	}

	// Phase barrier: delayed uploads surface before grouping.
	tp.barrier(srv.Receive)
	tp.phase(PhasePartition)
	srv.BindTrace(tp.ro.curCtx())

	// The SSI groups by equal deterministic ciphertext — its whole
	// advantage, and its whole leakage.
	chunks, err := srv.Partition(1 << 30) // one logical batch
	if err != nil {
		return nil, stats, err
	}
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
	stats.Chunks = len(groups)
	tp.phase(PhaseTokenFold)

	// Aggregation: one token call per observed group, fanned out over the
	// fleet. Schedule groups in sorted order so worker assignment and
	// partial folding are deterministic regardless of pool size.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// processEnv is the noise protocol's envelope fold: skip past the
	// deterministic group ciphertext, decrypt the tuple, discard fakes.
	processEnv := func(out *chunkOutcome, env netsim.Envelope) {
		body, err := open(kr, env.Payload)
		if err != nil {
			out.macFailures++
			return
		}
		n := int(binary.LittleEndian.Uint16(body[:2]))
		vct := body[2+n:]
		pt, err := kr.NonDet.Decrypt(vct)
		if err != nil {
			out.macFailures++
			return
		}
		t, err := decodeTuplePlain(pt)
		if err != nil {
			out.err = err
			return
		}
		out.partial.IDSum += t.ID
		out.partial.Count++
		if !t.Fake {
			out.partial.Aggs[t.Group] = out.partial.Aggs[t.Group].Fold(t.Value)
		}
	}
	outs := make([]chunkOutcome, len(keys))
	cfg.forEachChunk(len(keys), func(i int) {
		outs[i] = tp.runFold(
			foldJob{worker: parts[i%len(parts)].ID, kind: "group-chunk", label: strconv.Itoa(i)},
			groups[keys[i]], processEnv, sealedPartial(kr))
	})
	partials, leaves, err := tp.foldOutcomes(outs, &stats)
	if err != nil {
		return nil, stats, err
	}
	if len(forged) > 0 {
		// Malformed envelopes visit a token without a partial upload: the
		// token's only job is to flag them (its partial rides locally in
		// the flat topology, sealed on demand by the tree reduce).
		out := tp.runFold(foldJob{worker: parts[0].ID, kind: "group-chunk", label: "forged"}, forged, processEnv, nil)
		stats.MACFailures += out.macFailures
		if out.macFailures > 0 {
			stats.Detected = true
		}
		if out.err != nil {
			return nil, stats, out.err
		}
		partials = append(partials, out.partial)
		leaves = append(leaves, leafPartial{partial: out.partial, worker: out.worker, end: tp.elapsed(out.worker, false)})
	}

	// Merge + integrity check.
	if cfg.topology.IsTree() {
		if partials, err = tp.reduceTree(kr, parts, leaves, cfg.topology.Arity(), &stats); err != nil {
			return nil, stats, err
		}
	} else {
		tp.phase(PhaseMerge)
	}
	tp.barrier(nil)
	wantID, wantCount := expectedChecksum(parts, fakesPer)
	res, detected := mergePartials(partials, wantID, wantCount)
	if detected {
		stats.Detected = true
	}
	tp.finish(&stats)
	if stats.Detected {
		return res, stats, detectionError("noise", stats)
	}
	return res, stats, nil
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
