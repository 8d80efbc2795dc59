package anon

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pds/internal/gquery"
	"pds/internal/netsim"
	"pds/internal/transport"
)

// Contributor is one PDS contributing microdata to a publication.
type Contributor struct {
	ID      string
	Records []Record
}

// PublishStats reports the cost and integrity outcome of a token-mediated
// publication: the gathering run's stats, whose Net also counts the
// release of the anonymized table, and the number of records the token
// collected.
type PublishStats struct {
	gquery.RunStats
	Records int
}

// PublishViaTokens runs the [ANP13]-style publication on gquery's
// secure-aggregation run. Every contributor is a participant, and each of
// its records is one tuple whose group is the encoded record, so every
// upload is non-deterministically encrypted and MACed and the untrusted
// SSI can only partition blindly. One chunk holds every record — the
// token pulls everything — and the run's verdict (MACs and the tuple-id
// checksum) detects a weakly-malicious SSI with a typed
// gquery.DetectionError. The token expands the per-record counts back
// into a dataset, runs the generalization algorithm inside the secure
// enclave, and releases only the anonymized table. The SSI never sees a
// plaintext record.
func PublishViaTokens(e *gquery.Engine, w transport.Transport, srv gquery.Infra, kr *gquery.Keyring,
	contributors []Contributor, names []string, hierarchies []Hierarchy, p Params) (*Anonymized, PublishStats, error) {

	parts := make([]gquery.Participant, len(contributors))
	total := 0
	for i, c := range contributors {
		parts[i] = gquery.Participant{ID: c.ID, Tuples: make([]gquery.Tuple, len(c.Records))}
		for j, r := range c.Records {
			parts[i].Tuples[j] = gquery.Tuple{Group: string(encodeRecord(r))}
		}
		total += len(c.Records)
	}
	res, rs, err := e.SecureAgg(w, srv, parts, kr, max(total, 1))
	stats := PublishStats{RunStats: rs, Records: int(res.TotalCount())}
	if err != nil {
		return nil, stats, err
	}

	keys := make([]string, 0, len(res))
	for k := range res {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ds := Dataset{QINames: names, Hierarchies: hierarchies, Records: make([]Record, 0, stats.Records)}
	for _, k := range keys {
		rec, err := decodeRecord([]byte(k))
		if err != nil {
			return nil, stats, err
		}
		for n := res[k].Count; n > 0; n-- {
			ds.Records = append(ds.Records, rec)
		}
	}
	out, err := Anonymize(ds, p)
	if err != nil {
		return nil, stats, err
	}
	// Publication: the anonymized table leaves the token in clear — that
	// is the point of the protocol.
	payload := make([]byte, 32)
	for range out.Records {
		w.Send(netsim.Envelope{From: "publisher-token", To: "public", Kind: "publish", Payload: payload})
		stats.Net.Messages++
		stats.Net.Bytes += int64(len(payload))
	}
	return out, stats, nil
}

// encodeRecord serializes #QIs | QIs | sensitive.
func encodeRecord(r Record) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(len(r.QI)))
	for _, q := range r.QI {
		out = binary.LittleEndian.AppendUint16(out, uint16(len(q)))
		out = append(out, q...)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(r.Sensitive)))
	return append(out, r.Sensitive...)
}

func decodeRecord(data []byte) (Record, error) {
	if len(data) < 2 {
		return Record{}, fmt.Errorf("anon: short record")
	}
	n := int(binary.LittleEndian.Uint16(data))
	off := 2
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
			return Record{}, err
		}
		rec.QI = append(rec.QI, s)
	}
	s, err := readStr()
	if err != nil {
		return Record{}, err
	}
	rec.Sensitive = s
	if off != len(data) {
		return Record{}, fmt.Errorf("anon: trailing bytes")
	}
	return rec, nil
}
