package anon

import (
	"encoding/binary"
	"errors"
	"fmt"

	"pds/internal/netsim"
	"pds/internal/privcrypto"
	"pds/internal/ssi"
)

// Contributor is one PDS contributing microdata to a publication.
type Contributor struct {
	ID      string
	Records []Record
}

// PublishStats reports the cost and integrity outcome of a token-mediated
// publication.
type PublishStats struct {
	Net         netsim.Stats
	Records     int
	MACFailures int
	Detected    bool
}

// ErrDetected is returned when the SSI tampered with the collection.
var ErrDetected = errors.New("anon: SSI misbehaviour detected")

// PublishViaTokens runs the [ANP13]-style publication: every contributor
// uploads its records non-deterministically encrypted through the
// untrusted SSI; a trusted token collects them, verifies integrity
// (MACs + tuple-id checksum), runs the generalization algorithm inside the
// secure enclave, and releases only the anonymized table. The SSI never
// sees a plaintext record.
func PublishViaTokens(net *netsim.Network, srv *ssi.Server, contributors []Contributor,
	masterKey []byte, names []string, hierarchies []Hierarchy, p Params) (*Anonymized, PublishStats, error) {

	var stats PublishStats
	if len(contributors) == 0 {
		return nil, stats, errors.New("anon: no contributors")
	}
	cipher, err := privcrypto.NewNonDetCipher(masterKey)
	if err != nil {
		return nil, stats, err
	}
	mac := privcrypto.NewKeyedMAC(privcrypto.MAC(masterKey, []byte("anon-mac")))

	// Collection.
	var wantIDSum uint64
	var wantCount int64
	for _, c := range contributors {
		for seq, r := range c.Records {
			id := ssi.HashID(c.ID, seq)
			wantIDSum += id
			wantCount++
			pt := encodeRecord(id, r)
			// payload = Enc_nd(record) | mac(32), built in one buffer.
			ct, err := cipher.AppendEncrypt(make([]byte, 0, len(pt)+privcrypto.Overhead+32), pt)
			if err != nil {
				return nil, stats, err
			}
			payload := mac.Sum(ct, ct)
			srv.Receive(net.Send(netsim.Envelope{
				From: c.ID, To: "ssi", Kind: "record", Payload: payload,
			}))
		}
	}

	// The token pulls everything (the SSI may misbehave here).
	chunks, err := srv.Partition(1 << 30)
	if err != nil {
		return nil, stats, err
	}
	ds := Dataset{QINames: names, Hierarchies: hierarchies}
	var idSum uint64
	var count int64
	for _, chunk := range chunks {
		for _, env := range chunk {
			net.Send(netsim.Envelope{From: "ssi", To: "publisher-token", Kind: "collect", Payload: env.Payload})
			if len(env.Payload) < 32 {
				stats.MACFailures++
				stats.Detected = true
				continue
			}
			ct := env.Payload[:len(env.Payload)-32]
			if !mac.Verify(ct, env.Payload[len(env.Payload)-32:]) {
				stats.MACFailures++
				stats.Detected = true
				continue
			}
			pt, err := cipher.Decrypt(ct)
			if err != nil {
				stats.MACFailures++
				stats.Detected = true
				continue
			}
			id, rec, err := decodeRecord(pt)
			if err != nil {
				return nil, stats, err
			}
			idSum += id
			count++
			ds.Records = append(ds.Records, rec)
		}
	}
	if idSum != wantIDSum || count != wantCount {
		stats.Detected = true
	}
	stats.Records = len(ds.Records)
	stats.Net = net.Stats()
	if stats.Detected {
		return nil, stats, ErrDetected
	}

	out, err := Anonymize(ds, p)
	if err != nil {
		return nil, stats, err
	}
	// Publication: the anonymized table leaves the token in clear — that
	// is the point of the protocol.
	for range out.Records {
		net.Send(netsim.Envelope{From: "publisher-token", To: "public", Kind: "publish", Payload: make([]byte, 32)})
	}
	stats.Net = net.Stats()
	return out, stats, nil
}

// encodeRecord serializes id | #QIs | QIs | sensitive.
func encodeRecord(id uint64, r Record) []byte {
	out := make([]byte, 8, 16)
	binary.LittleEndian.PutUint64(out, id)
	var b2 [2]byte
	binary.LittleEndian.PutUint16(b2[:], uint16(len(r.QI)))
	out = append(out, b2[:]...)
	for _, q := range r.QI {
		binary.LittleEndian.PutUint16(b2[:], uint16(len(q)))
		out = append(out, b2[:]...)
		out = append(out, q...)
	}
	binary.LittleEndian.PutUint16(b2[:], uint16(len(r.Sensitive)))
	out = append(out, b2[:]...)
	out = append(out, r.Sensitive...)
	return out
}

func decodeRecord(data []byte) (uint64, Record, error) {
	if len(data) < 10 {
		return 0, Record{}, fmt.Errorf("anon: short record")
	}
	id := binary.LittleEndian.Uint64(data[:8])
	n := int(binary.LittleEndian.Uint16(data[8:10]))
	off := 10
	rec := Record{QI: make([]string, 0, n)}
	readStr := func() (string, error) {
		if off+2 > len(data) {
			return "", fmt.Errorf("anon: corrupt record")
		}
		l := int(binary.LittleEndian.Uint16(data[off : off+2]))
		off += 2
		if off+l > len(data) {
			return "", fmt.Errorf("anon: corrupt record")
		}
		s := string(data[off : off+l])
		off += l
		return s, nil
	}
	for i := 0; i < n; i++ {
		s, err := readStr()
		if err != nil {
			return 0, Record{}, err
		}
		rec.QI = append(rec.QI, s)
	}
	s, err := readStr()
	if err != nil {
		return 0, Record{}, err
	}
	rec.Sensitive = s
	if off != len(data) {
		return 0, Record{}, fmt.Errorf("anon: trailing bytes")
	}
	return id, rec, nil
}
