package gquery

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"sort"

	"pds/internal/netsim"
	"pds/internal/privcrypto"
	tnet "pds/internal/transport"
)

// RunPaillierAgg is the homomorphic variant of the protocol family: the
// grouping attribute travels under deterministic encryption (as in the
// noise protocol) while the measure travels under Paillier. The SSI then
// aggregates each group ENTIRELY BY ITSELF — multiplying ciphertexts is
// adding plaintexts — and only the final per-group sums visit a token
// holding the private key for decryption and integrity checking.
//
// Compared with SecureAgg this trades worker-token round-trips for
// public-key computation, and leaks the group frequency histogram (same
// channel as the no-noise deterministic protocol). COUNT and SUM are
// exact; MIN/MAX cannot be computed under purely additive homomorphism,
// so the result's Min/Max fields are zero — the structural limitation the
// tutorial's "the difficult part will often be the aggregate part" remark
// points at.
//
// Detection: every upload carries a MACed tuple id; the SSI must return
// the id list with each group so the final token can verify the checksum.
//
// The token side is a single final decryption call, so Workers has nothing
// to fan out; the config contributes the fault plane, the reliable links
// and the observer. Paillier ciphertexts ride the wire at the key's fixed
// width (pk.CipherLen), keeping byte-level accounting deterministic.
//
// WithTopology does not apply here: the SSI folds ciphertexts
// itself, so there is no token fold plane to arrange into a tree.
func runPaillierAgg(w tnet.Transport, srv Infra, parts []Participant, kr *Keyring,
	pk *privcrypto.PaillierPublicKey, sk *privcrypto.PaillierPrivateKey, cfg config) (Result, RunStats, error) {

	if len(parts) == 0 {
		return nil, RunStats{}, ErrNoParticipants
	}
	if pk == nil || sk == nil {
		return nil, RunStats{}, fmt.Errorf("gquery: paillier protocol needs a key pair")
	}
	r := newRun(w, srv, parts, kr, cfg, "paillier")
	defer r.tp.close()

	// Collection: payload = u16 gctLen | gct | u16 idBlobLen | idBlob | vct
	// where idBlob = (u64 id | mac32) and vct is the Paillier ciphertext.
	cipherLen := pk.CipherLen()
	const idBlobLen = 8 + 32
	seal := eachTuple(func(id uint64, t Tuple) ([]byte, error) {
		if t.Value < 0 {
			return nil, fmt.Errorf("gquery: paillier protocol needs non-negative values, got %d", t.Value)
		}
		vct, err := pk.EncryptInt64(t.Value, nil)
		if err != nil {
			return nil, err
		}
		gctLen := len(t.Group) + privcrypto.Overhead
		payload := make([]byte, 0, 4+gctLen+idBlobLen+cipherLen)
		payload = binary.LittleEndian.AppendUint16(payload, uint16(gctLen))
		if payload, err = kr.Det.AppendEncrypt(payload, []byte(t.Group)); err != nil {
			return nil, err
		}
		payload = binary.LittleEndian.AppendUint16(payload, idBlobLen)
		payload = binary.LittleEndian.AppendUint64(payload, id)
		payload = kr.keyed().Sum(payload, payload[len(payload)-8:])
		off := len(payload)
		payload = payload[:off+cipherLen]
		vct.FillBytes(payload[off:])
		return payload, nil
	})
	chunks, err := r.collect(1<<30, seal)
	if err != nil {
		return nil, r.stats, err
	}

	// The SSI groups by det ciphertext and aggregates homomorphically.
	type groupAcc struct {
		cipher *big.Int
		count  int64
		ids    [][]byte // id blobs passed through for the token's check
	}
	groups := map[string]*groupAcc{}
	for _, chunk := range chunks {
		for _, env := range chunk {
			gct, idBlob, vbytes, ok := splitPaillierPayload(env.Payload)
			if !ok {
				// Malformed envelope: the SSI cannot parse it, so it
				// never reaches the token; flag the run here.
				r.stats.Detected = true
				r.stats.MACFailures++
				continue
			}
			srv.ObserveGroup(gct)
			acc := groups[string(gct)]
			if acc == nil {
				acc = &groupAcc{cipher: big.NewInt(1)} // multiplicative identity mod N²
				groups[string(gct)] = acc
			}
			acc.cipher = pk.AddCipher(acc.cipher, new(big.Int).SetBytes(vbytes))
			acc.count++
			acc.ids = append(acc.ids, idBlob)
		}
	}
	r.stats.Chunks = len(groups)
	r.tp.phase(PhaseMerge)

	// Final token: decrypt per-group sums and verify every id MAC; the
	// consumed ids form its one partial for the checksum. Groups visit
	// the token in sorted key order so the wire schedule does not depend
	// on map iteration.
	keys := make([]string, 0, len(groups))
	for gct := range groups {
		keys = append(keys, gct)
	}
	sort.Strings(keys)
	final := partialAgg{Aggs: map[string]GroupAgg{}}
	for _, gct := range keys {
		acc := groups[gct]
		// One message models the SSI → token hand-over per group.
		homPayload := make([]byte, cipherLen)
		acc.cipher.FillBytes(homPayload)
		if err := r.tp.send(netsim.Envelope{From: "ssi", To: parts[0].ID, Kind: "hom-group", Payload: homPayload},
			nil); err != nil {
			return nil, r.stats, err
		}
		groupName, err := kr.Det.Decrypt([]byte(gct))
		if err != nil {
			r.stats.MACFailures++
			r.stats.Detected = true
			continue
		}
		sum, err := sk.Decrypt(acc.cipher)
		if err != nil {
			r.stats.Detected = true
			continue
		}
		for _, blob := range acc.ids {
			if len(blob) != idBlobLen || !kr.keyed().Verify(blob[:8], blob[8:]) {
				r.stats.MACFailures++
				r.stats.Detected = true
				continue
			}
			final.IDSum += binary.LittleEndian.Uint64(blob[:8])
			final.Count++
		}
		final.Aggs[string(groupName)] = GroupAgg{Sum: sum.Int64(), Count: acc.count}
	}
	r.stats.WorkerCalls = 1 // only the final decryption token

	wantID, wantCount := expectedChecksum(parts, nil)
	return r.verdict([]partialAgg{final}, wantID, wantCount)
}

// splitPaillierPayload parses an upload of the homomorphic protocol.
func splitPaillierPayload(payload []byte) (gct, idBlob, vbytes []byte, ok bool) {
	if len(payload) < 4 {
		return nil, nil, nil, false
	}
	gl := int(binary.LittleEndian.Uint16(payload[:2]))
	if 2+gl+2 > len(payload) {
		return nil, nil, nil, false
	}
	gct = payload[2 : 2+gl]
	il := int(binary.LittleEndian.Uint16(payload[2+gl : 4+gl]))
	if 4+gl+il > len(payload) {
		return nil, nil, nil, false
	}
	idBlob = payload[4+gl : 4+gl+il]
	vbytes = payload[4+gl+il:]
	if len(vbytes) == 0 {
		return nil, nil, nil, false
	}
	return gct, idBlob, vbytes, true
}
