// Package acl implements the privacy-policy layer of a Personal Data
// Server: intuitive allow/deny rules evaluated inside the token, purpose
// binding (the "secure usage" requirement), and a hash-chained audit log
// providing the accountability the tutorial lists among the required
// global functionalities — every access decision is recorded in a
// tamper-evident chain the user can hand to an auditor.
package acl

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Action is an operation on a data collection.
type Action int

// Supported actions.
const (
	Read Action = iota
	Write
	Share
)

func (a Action) String() string {
	switch a {
	case Read:
		return "read"
	case Write:
		return "write"
	case Share:
		return "share"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Request describes one attempted access.
type Request struct {
	Subject    string // who: user id
	Role       string // acting as: "doctor", "family", ...
	Collection string // what: "medical/prescriptions", "photos", ...
	Action     Action
	Purpose    string // why: "care", "statistics", "marketing", ...
}

// Rule matches requests and allows or denies them. Empty fields match
// anything; Collection supports a trailing "/*" prefix wildcard.
type Rule struct {
	Subject    string
	Role       string
	Collection string
	Action     *Action // nil matches any action
	Purpose    string
	Allow      bool
}

// ActionP is a convenience for building rule literals.
func ActionP(a Action) *Action { return &a }

// Matches reports whether the rule covers the request.
func (r Rule) Matches(q Request) bool {
	if r.Subject != "" && r.Subject != q.Subject {
		return false
	}
	if r.Role != "" && r.Role != q.Role {
		return false
	}
	if r.Action != nil && *r.Action != q.Action {
		return false
	}
	if r.Purpose != "" && r.Purpose != q.Purpose {
		return false
	}
	if r.Collection != "" {
		if prefix, ok := strings.CutSuffix(r.Collection, "/*"); ok {
			rest, ok := strings.CutPrefix(q.Collection, prefix)
			if !ok || (rest != "" && rest[0] != '/') {
				return false
			}
		} else if r.Collection != q.Collection {
			return false
		}
	}
	return true
}

// Policy is an ordered rule set with deny-overrides semantics and default
// deny: among matching rules, any deny wins; otherwise any allow wins;
// otherwise the request is denied.
type Policy struct {
	mu    sync.RWMutex
	rules []Rule
}

// NewPolicy creates an empty (deny-everything) policy.
func NewPolicy() *Policy { return &Policy{} }

// Add appends a rule.
func (p *Policy) Add(r Rule) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.rules = append(p.rules, r)
}

// Rules returns a copy of the rule set.
func (p *Policy) Rules() []Rule {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return append([]Rule(nil), p.rules...)
}

// Decide evaluates a request.
func (p *Policy) Decide(q Request) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	allowed := false
	for _, r := range p.rules {
		if !r.Matches(q) {
			continue
		}
		if !r.Allow {
			return false // deny overrides
		}
		allowed = true
	}
	return allowed
}

// AuditEntry records one decision in the accountability chain.
type AuditEntry struct {
	Seq      int
	Time     time.Time
	Request  Request
	Allowed  bool
	PrevHash string
	Hash     string
}

// AuditLog is a hash-chained decision journal: each entry commits to its
// predecessor, so truncation or in-place modification is detectable.
type AuditLog struct {
	mu      sync.Mutex
	entries []AuditEntry
	now     func() time.Time
}

// NewAuditLog creates an empty log. A nil clock uses time.Now.
func NewAuditLog(clock func() time.Time) *AuditLog {
	if clock == nil {
		clock = time.Now
	}
	return &AuditLog{now: clock}
}

// SetClock replaces the log's time source for subsequent entries; nil
// restores time.Now. Already-recorded entries keep their timestamps (and
// their hashes stay valid — the chain commits to the recorded time).
func (l *AuditLog) SetClock(clock func() time.Time) {
	if clock == nil {
		clock = time.Now
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.now = clock
}

// entryHash commits to an entry and its predecessor: the SHA-256, in hex,
// of prev|seq|unixnano|subject|role|collection|action|purpose|allowed.
func entryHash(prev string, seq int, t time.Time, q Request, allowed bool) string {
	bp := preimages.Get().(*[]byte)
	b := append((*bp)[:0], prev...)
	b = strconv.AppendInt(append(b, '|'), int64(seq), 10)
	b = strconv.AppendInt(append(b, '|'), t.UnixNano(), 10)
	b = append(append(b, '|'), q.Subject...)
	b = append(append(b, '|'), q.Role...)
	b = append(append(b, '|'), q.Collection...)
	b = append(append(b, '|'), q.Action.String()...)
	b = append(append(b, '|'), q.Purpose...)
	b = strconv.AppendBool(append(b, '|'), allowed)
	sum := sha256.Sum256(b)
	*bp = b
	preimages.Put(bp)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:])
}

// preimages recycles entryHash's scratch across every audit log of the
// process.
var preimages = sync.Pool{New: func() any { return new([]byte) }}

// Record appends a decision.
func (l *AuditLog) Record(q Request, allowed bool) AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	prev := ""
	if n := len(l.entries); n > 0 {
		prev = l.entries[n-1].Hash
	}
	e := AuditEntry{
		Seq:      len(l.entries),
		Time:     l.now(),
		Request:  q,
		Allowed:  allowed,
		PrevHash: prev,
	}
	e.Hash = entryHash(prev, e.Seq, e.Time, q, allowed)
	l.entries = append(l.entries, e)
	return e
}

// Entries returns a copy of the journal.
func (l *AuditLog) Entries() []AuditEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]AuditEntry(nil), l.entries...)
}

// Len returns the number of entries.
func (l *AuditLog) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.entries)
}

// Verify checks the whole chain, returning the index of the first broken
// entry (-1 if intact).
func Verify(entries []AuditEntry) int {
	prev := ""
	for i, e := range entries {
		if e.PrevHash != prev || e.Seq != i {
			return i
		}
		if entryHash(prev, e.Seq, e.Time, e.Request, e.Allowed) != e.Hash {
			return i
		}
		prev = e.Hash
	}
	return -1
}

// Guard couples a policy with an audit log: every decision is recorded.
// Observe (see obs.go) optionally mirrors decisions into a metrics
// registry.
type Guard struct {
	Policy *Policy
	Audit  *AuditLog
	hook   obsHook
}

// NewGuard builds a guard with a fresh deny-all policy and empty log.
func NewGuard() *Guard {
	return &Guard{Policy: NewPolicy(), Audit: NewAuditLog(nil)}
}

// Check decides and records a request.
func (g *Guard) Check(q Request) bool {
	allowed := g.Policy.Decide(q)
	g.Audit.Record(q, allowed)
	g.hook.note(allowed)
	return allowed
}
