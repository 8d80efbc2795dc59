// Package folkis simulates the tutorial's Folk-enabled Information System
// perspective: personal data services for regions with no network
// infrastructure at all. Tokens carried by people form a delay-tolerant
// network — messages are stored, carried and forwarded at chance physical
// encounters — satisfying the three Folk-IS principles the tutorial lists:
//
//	privacy          : payloads travel end-to-end encrypted; a carrier
//	                   sees only an opaque id and the destination;
//	self-sufficiency : no server, no link, no authority is ever assumed;
//	low cost         : nodes have small bounded buffers (cheap tokens).
//
// Two routing strategies are provided: Direct (a message moves only when
// its source meets its destination — the no-cooperation baseline) and
// Epidemic (every encounter replicates undelivered messages), letting the
// experiments measure what cooperation buys in delivery ratio and latency.
package folkis

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
)

// Routing selects the forwarding strategy.
type Routing int

// Available strategies.
const (
	// Direct hands a message over only when source meets destination.
	Direct Routing = iota
	// Epidemic replicates undelivered messages at every encounter.
	Epidemic
)

func (r Routing) String() string {
	switch r {
	case Direct:
		return "direct"
	case Epidemic:
		return "epidemic"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// Message is one store-carry-forward envelope. Payload is opaque to every
// carrier (the sender encrypts it for the recipient).
type Message struct {
	ID      uint64
	From    string
	To      string
	Payload []byte
	Created int // simulation step when sent
}

// node is one person with a token.
type node struct {
	id  string
	loc int
	// buffer holds carried message copies, in arrival order (for the
	// drop-oldest policy of bounded buffers).
	buffer []uint64
	seen   map[uint64]bool
}

// Stats summarizes a simulation.
type Stats struct {
	Sent       int
	Delivered  int
	Copies     int // total replications performed
	Drops      int // buffer-overflow evictions
	Encounters int
}

// DeliveryRatio returns delivered/sent (1 if nothing was sent).
func (s Stats) DeliveryRatio() float64 {
	if s.Sent == 0 {
		return 1
	}
	return float64(s.Delivered) / float64(s.Sent)
}

// Sim is one delay-tolerant network simulation. Time advances in discrete
// steps: every step each node moves to a random location, then co-located
// nodes exchange according to the routing strategy.
type Sim struct {
	routing   Routing
	locations int
	bufferCap int
	rng       *rand.Rand
	nodes     []*node
	byID      map[string]*node
	msgs      map[uint64]*Message
	delivered map[uint64]int // message id → delivery latency (steps)
	nextID    uint64
	step      int
	stats     Stats
}

// Config parameterizes a simulation.
type Config struct {
	Nodes     int
	Locations int
	BufferCap int // max carried copies per node (0 = unlimited)
	Routing   Routing
	Seed      int64
}

// Simulation errors.
var (
	ErrUnknownNode = errors.New("folkis: unknown node")
	ErrBadConfig   = errors.New("folkis: need at least 2 nodes and 1 location")
)

// NewSim builds a simulation with nodes named "n0".."nN-1".
func NewSim(cfg Config) (*Sim, error) {
	if cfg.Nodes < 2 || cfg.Locations < 1 {
		return nil, ErrBadConfig
	}
	s := &Sim{
		routing:   cfg.Routing,
		locations: cfg.Locations,
		bufferCap: cfg.BufferCap,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		byID:      map[string]*node{},
		msgs:      map[uint64]*Message{},
		delivered: map[uint64]int{},
	}
	for i := 0; i < cfg.Nodes; i++ {
		n := &node{
			id:   fmt.Sprintf("n%d", i),
			loc:  s.rng.Intn(cfg.Locations),
			seen: map[uint64]bool{},
		}
		s.nodes = append(s.nodes, n)
		s.byID[n.id] = n
	}
	return s, nil
}

// Nodes returns the node ids.
func (s *Sim) Nodes() []string {
	out := make([]string, len(s.nodes))
	for i, n := range s.nodes {
		out[i] = n.id
	}
	return out
}

// Send queues a message at its source node and returns its id.
func (s *Sim) Send(from, to string, payload []byte) (uint64, error) {
	src, ok := s.byID[from]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownNode, from)
	}
	if _, ok := s.byID[to]; !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownNode, to)
	}
	s.nextID++
	id := s.nextID
	s.msgs[id] = &Message{
		ID: id, From: from, To: to,
		Payload: append([]byte(nil), payload...),
		Created: s.step,
	}
	src.store(s, id)
	src.seen[id] = true
	s.stats.Sent++
	return id, nil
}

// store adds a copy to a node's bounded buffer (drop-oldest on overflow).
func (n *node) store(s *Sim, id uint64) {
	n.buffer = append(n.buffer, id)
	if s.bufferCap > 0 && len(n.buffer) > s.bufferCap {
		evicted := n.buffer[0]
		n.buffer = n.buffer[1:]
		s.stats.Drops++
		_ = evicted
	}
}

// drop removes a copy, if held.
func (n *node) drop(id uint64) {
	for i, m := range n.buffer {
		if m == id {
			n.buffer = append(n.buffer[:i], n.buffer[i+1:]...)
			return
		}
	}
}

// Step advances the simulation: random-waypoint movement, then pairwise
// exchange at every location, in ascending location order so the seed
// alone fixes the run.
func (s *Sim) Step() {
	s.step++
	for _, n := range s.nodes {
		n.loc = s.rng.Intn(s.locations)
	}
	// Group by location.
	byLoc := make([][]*node, s.locations)
	for _, n := range s.nodes {
		byLoc[n.loc] = append(byLoc[n.loc], n)
	}
	for _, group := range byLoc {
		if len(group) < 2 {
			continue
		}
		for i := 0; i < len(group); i++ {
			for j := i + 1; j < len(group); j++ {
				s.encounter(group[i], group[j])
			}
		}
	}
}

// encounter exchanges messages between two co-located nodes.
func (s *Sim) encounter(a, b *node) {
	s.stats.Encounters++
	s.transfer(a, b)
	s.transfer(b, a)
}

// transfer moves/copies undelivered messages from carrier to peer.
func (s *Sim) transfer(carrier, peer *node) {
	var deliveredNow []uint64
	for _, id := range append([]uint64(nil), carrier.buffer...) {
		if _, done := s.delivered[id]; done {
			deliveredNow = append(deliveredNow, id)
			continue
		}
		m := s.msgs[id]
		if peer.id == m.To {
			s.delivered[id] = s.step - m.Created
			s.stats.Delivered++
			deliveredNow = append(deliveredNow, id)
			continue
		}
		if s.routing == Epidemic && !peer.seen[id] {
			peer.seen[id] = true
			peer.store(s, id)
			s.stats.Copies++
		}
	}
	// Anti-entropy: carriers purge copies of messages known delivered.
	for _, id := range deliveredNow {
		carrier.drop(id)
	}
}

// Run advances n steps.
func (s *Sim) Run(n int) {
	for i := 0; i < n; i++ {
		s.Step()
	}
}

// Delivered reports whether a message arrived and with what latency.
func (s *Sim) Delivered(id uint64) (int, bool) {
	lat, ok := s.delivered[id]
	return lat, ok
}

// Stats returns the counters so far.
func (s *Sim) Stats() Stats { return s.stats }

// Latencies returns the sorted delivery latencies.
func (s *Sim) Latencies() []int {
	out := make([]int, 0, len(s.delivered))
	for _, l := range s.delivered {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

// Percentile returns the p-th percentile latency (p in [0,100]); ok=false
// if nothing was delivered.
func (s *Sim) Percentile(p float64) (int, bool) {
	ls := s.Latencies()
	if len(ls) == 0 {
		return 0, false
	}
	idx := int(p / 100 * float64(len(ls)-1))
	return ls[idx], true
}

// CarrierView is what an intermediate node can observe about a carried
// message: everything except the payload content.
type CarrierView struct {
	ID      uint64
	To      string
	Payload []byte // ciphertext as carried
}

// BufferOf exposes a node's carried messages as a carrier would see them
// (used by privacy tests: payloads must be ciphertext).
func (s *Sim) BufferOf(nodeID string) ([]CarrierView, error) {
	n, ok := s.byID[nodeID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownNode, nodeID)
	}
	out := make([]CarrierView, 0, len(n.buffer))
	for _, id := range n.buffer {
		m := s.msgs[id]
		out = append(out, CarrierView{ID: id, To: m.To, Payload: append([]byte(nil), m.Payload...)})
	}
	return out, nil
}
