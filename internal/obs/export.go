package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// CounterPoint is one counter series in a snapshot.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge series in a snapshot.
type GaugePoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// BucketPoint is one histogram bucket: count of observations <= LE, or the
// overflow bucket when Overflow is set.
type BucketPoint struct {
	LE       int64 `json:"le"`
	Count    int64 `json:"count"`
	Overflow bool  `json:"overflow,omitempty"`
}

// HistogramPoint is one histogram series in a snapshot.
type HistogramPoint struct {
	Name    string        `json:"name"`
	Sum     int64         `json:"sum"`
	Count   int64         `json:"count"`
	Buckets []BucketPoint `json:"buckets"`
}

// Snapshot is a point-in-time, fully ordered export of a registry:
// every series sorted by canonical name, spans by ID, alerts by firing
// time then name. Identical runs produce identical snapshots — the
// golden tests depend on it. (Alerts is omitempty so registries that
// never fire one keep their pre-alert byte-identical encodings.)
type Snapshot struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
	Alerts     []AlertRecord    `json:"alerts,omitempty"`
	Spans      []SpanRecord     `json:"spans"`
}

// Snapshot exports the registry's current state.
func (r *Registry) Snapshot() Snapshot {
	type named struct {
		name string
		m    any
	}
	r.mu.RLock()
	series := make([]named, len(r.names))
	for i, name := range r.names {
		series[i] = named{name, r.metrics[name].m}
	}
	snap := Snapshot{Alerts: append([]AlertRecord(nil), r.alerts...)}
	r.mu.RUnlock()
	sort.Slice(series, func(i, j int) bool { return series[i].name < series[j].name })

	snap.Counters = []CounterPoint{}
	snap.Gauges = []GaugePoint{}
	snap.Histograms = []HistogramPoint{}
	for _, s := range series {
		name := s.name
		switch v := s.m.(type) {
		case *Counter:
			snap.Counters = append(snap.Counters, CounterPoint{Name: name, Value: v.Value()})
		case *Gauge:
			snap.Gauges = append(snap.Gauges, GaugePoint{Name: name, Value: v.Value()})
		case *Histogram:
			hp := HistogramPoint{Name: name, Sum: v.Sum(), Count: v.Count()}
			for i := range v.counts {
				bp := BucketPoint{Count: v.counts[i].v.Load()}
				if i < len(v.bounds) {
					bp.LE = v.bounds[i]
				} else {
					bp.Overflow = true
				}
				hp.Buckets = append(hp.Buckets, bp)
			}
			snap.Histograms = append(snap.Histograms, hp)
		}
	}
	sort.Slice(snap.Alerts, func(i, j int) bool {
		a, b := snap.Alerts[i], snap.Alerts[j]
		if a.AtNS != b.AtNS {
			return a.AtNS < b.AtNS
		}
		return a.Name < b.Name
	})
	snap.Spans = r.tracer.Spans()
	if snap.Spans == nil {
		snap.Spans = []SpanRecord{}
	}
	return snap
}

// JSON renders the snapshot as indented, deterministically ordered JSON.
func (s Snapshot) JSON() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JSON exports the registry as a deterministic JSON snapshot.
func (r *Registry) JSON() ([]byte, error) { return r.Snapshot().JSON() }

// ParseSnapshot decodes a snapshot previously rendered by JSON — the
// wire inverse a fleet coordinator uses to fold remote shard snapshots
// back into a registry via MergeSnapshot.
func ParseSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: parse snapshot: %w", err)
	}
	return s, nil
}

// Prometheus renders the snapshot in the Prometheus text exposition
// style. Spans are not representable there and are omitted. Every line
// is rendered through the sanitizer: family and label-key characters
// outside the exposition grammar become '_' (a leading digit gains a
// '_' prefix) and label values are escaped, so a hostile or sloppy
// series name can never corrupt the scrape output.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	seen := map[string]bool{}
	typeLine := func(fam, kind string) {
		if !seen[fam] {
			seen[fam] = true
			fmt.Fprintf(&b, "# TYPE %s %s\n", fam, kind)
		}
	}
	for _, c := range s.Counters {
		fam, labels := renderName(c.Name)
		typeLine(fam, "counter")
		fmt.Fprintf(&b, "%s%s %d\n", fam, labels, c.Value)
	}
	for _, g := range s.Gauges {
		fam, labels := renderName(g.Name)
		typeLine(fam, "gauge")
		fmt.Fprintf(&b, "%s%s %d\n", fam, labels, g.Value)
	}
	for _, h := range s.Histograms {
		fam, labels := renderName(h.Name)
		typeLine(fam, "histogram")
		cum := int64(0)
		for _, bp := range h.Buckets {
			cum += bp.Count
			le := fmt.Sprintf("%d", bp.LE)
			if bp.Overflow {
				le = "+Inf"
			}
			fmt.Fprintf(&b, "%s_bucket%s %d\n", fam, withLabel(labels, "le", le), cum)
		}
		fmt.Fprintf(&b, "%s_sum%s %d\n", fam, labels, h.Sum)
		fmt.Fprintf(&b, "%s_count%s %d\n", fam, labels, h.Count)
	}
	return b.String()
}

// Prometheus exports the registry in the text exposition style.
func (r *Registry) Prometheus() string { return r.Snapshot().Prometheus() }

// splitName separates a canonical name into family and the {...} label
// block ("" when unlabeled).
func splitName(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], name[i:]
	}
	return name, ""
}

// withLabel appends k="v" to a {...} label block (which may be empty).
func withLabel(labels, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// validFamilyName reports whether fam matches the exposition grammar for
// metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.
func validFamilyName(fam string) bool {
	if fam == "" {
		return false
	}
	for i, r := range fam {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// validLabelKey reports whether k matches the exposition grammar for
// label names: [a-zA-Z_][a-zA-Z0-9_]*.
func validLabelKey(k string) bool {
	if k == "" {
		return false
	}
	for i, r := range k {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ValidSeriesName reports whether a canonical series name renders to the
// Prometheus exposition format without any sanitization: family and
// every label key in grammar, label values free of characters that need
// escaping. The cross-codebase regression test holds every registered
// name to this.
func ValidSeriesName(name string) error {
	fam, block := splitName(name)
	if !validFamilyName(fam) {
		return fmt.Errorf("obs: family %q outside exposition grammar", fam)
	}
	for _, kv := range parseLabels(block) {
		if !validLabelKey(kv[0]) {
			return fmt.Errorf("obs: label key %q outside exposition grammar in %q", kv[0], name)
		}
		if strings.ContainsAny(kv[1], "\\\"\n") {
			return fmt.Errorf("obs: label value %q needs escaping in %q", kv[1], name)
		}
	}
	return nil
}

// sanitizeFamily coerces an arbitrary family into the exposition
// grammar: out-of-grammar runes become '_' and a leading digit gains a
// '_' prefix. Valid names pass through untouched.
func sanitizeFamily(fam string) string {
	if validFamilyName(fam) {
		return fam
	}
	var b strings.Builder
	for i, r := range fam {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// sanitizeLabelKey coerces an arbitrary label key into grammar.
func sanitizeLabelKey(k string) string {
	if validLabelKey(k) {
		return k
	}
	var b strings.Builder
	for i, r := range k {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// escapeLabelValue escapes the three characters the exposition format
// reserves inside quoted label values.
func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// parseLabels decodes a canonical {k="v",...} block (as built by Name)
// into ordered key/value pairs. Best-effort on pathological values: a
// closing quote is recognized at end of block or where a new k="v" pair
// follows.
func parseLabels(block string) [][2]string {
	if len(block) < 2 || block[0] != '{' || block[len(block)-1] != '}' {
		return nil
	}
	inner := block[1 : len(block)-1]
	var pairs [][2]string
	for inner != "" {
		eq := strings.Index(inner, `="`)
		if eq < 0 {
			break
		}
		key := inner[:eq]
		rest := inner[eq+2:]
		end := -1
		for i := 0; i < len(rest); i++ {
			if rest[i] != '"' {
				continue
			}
			if i == len(rest)-1 {
				end = i
				break
			}
			if rest[i+1] == ',' && strings.Contains(rest[i+2:], `="`) {
				end = i
				break
			}
		}
		if end < 0 {
			break
		}
		pairs = append(pairs, [2]string{key, rest[:end]})
		if end+2 <= len(rest) {
			inner = rest[end+2:]
		} else {
			inner = ""
		}
	}
	return pairs
}

// renderName converts a canonical series name into its exposition form:
// sanitized family plus a re-rendered label block with sanitized keys
// and escaped values.
func renderName(name string) (fam, labels string) {
	rawFam, block := splitName(name)
	fam = sanitizeFamily(rawFam)
	pairs := parseLabels(block)
	if len(pairs) == 0 {
		return fam, ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, kv := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(sanitizeLabelKey(kv[0]))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(kv[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return fam, b.String()
}
