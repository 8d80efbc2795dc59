package main

import (
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The benchmark runs on a few virtual CPUs of a shared host. Two things a
// neighbour does slow the program by up to half for seconds to minutes at a
// time, and neither shows on any clock of the guest: it takes turns on the
// other hardware thread of the core (instruction throughput drops), and it
// loads the memory system (loads take longer, allocation-heavy code slows
// down). Ten back-to-back runs of the same code then read 25 to 35 % apart,
// which hides any change worth landing.
//
// speedProbe measures those two things themselves, before and after every
// set-up and every throughput block of a measured run: three fixed kernels
// that call nothing of the program under test. A reading of the CPU clock
// is scaled by how much slower than nominal the kernels ran around it
// (speedSample.slowdown), so wall_ops_per_s and setup_s read as on a
// machine at nominal speed. The scaling is the same arithmetic on every
// commit, and both sides of a comparison get it. What it cannot take out
// stays in: on the reference box it halves the spread between runs or
// better (README.md), it does not remove it.
type speedProbe struct {
	ring []uint32 // one random cycle through the cache lines of memBytes, off the Go heap
	pos  uint32
	sink uint64
}

const (
	memBytes  = 64 << 20 // far beyond the caches: every hop is a DRAM access
	memHops   = 20000
	aluIters  = 1000000
	allocObjs = 20000
	lineWords = 16 // uint32s per cache line
)

// Nominal kernel times: what the 2-vCPU reference box reads while its
// neighbours are quiet. They set the scale of wall_ops_per_s and setup_s
// and cancel out of every comparison.
const (
	aluNominal   = 1550 * time.Microsecond
	memNominal   = 3600 * time.Microsecond
	allocNominal = 1700 * time.Microsecond
)

// How much of a kernel's slowdown the workloads share, fitted once over
// four-minute runs of the four gated workloads under the reference box's
// own interference (README.md has the residuals): the program slows like
// the integer kernel and, on top, by 0.4 of what the allocator and the
// memory latency lose. One set for every workload, so that no workload's
// number depends on a constant tuned to it.
const (
	aluShare   = 1.0
	memShare   = 0.4
	allocShare = 0.4
)

// sharedSpeedProbe returns the process's one probe; its memory stays
// mapped for the process's life.
var sharedSpeedProbe = sync.OnceValues(newSpeedProbe)

func newSpeedProbe() (*speedProbe, error) {
	raw, err := syscall.Mmap(-1, 0, memBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	p := &speedProbe{ring: unsafe.Slice((*uint32)(unsafe.Pointer(&raw[0])), memBytes/4)}
	// A full-period congruential walk over the line numbers links every
	// line into one cycle with no stride a prefetcher could follow.
	lines := uint32(memBytes / 4 / lineWords)
	line := uint32(0)
	for i := uint32(0); i < lines; i++ {
		next := (line*1664525 + 1013904223) & (lines - 1)
		p.ring[line*lineWords] = next * lineWords
		line = next
	}
	p.sample() // warm: the first reading pays for lazy set-up in the runtime
	return p, nil
}

// speedSample is one reading of the three kernels.
type speedSample struct{ alu, mem, alloc time.Duration }

// sample runs the kernels once: some 7 ms, 3 % of the block it closes.
// The kernels are timed on the elapsed clock, the only one fine enough.
func (p *speedProbe) sample() speedSample {
	var s speedSample
	t0 := time.Now()

	// Memory latency: dependent loads, each a cache and TLB miss.
	pos := p.pos
	for i := 0; i < memHops; i++ {
		pos = p.ring[pos]
	}
	p.pos = pos
	t1 := time.Now()
	s.mem = t1.Sub(t0)

	// Instruction throughput: four independent integer chains that keep
	// the core's ports busy from registers alone. The other hardware
	// thread of the core is the only thing that can slow it.
	a, b, c, d := p.sink|1, uint64(3), uint64(5), uint64(7)
	for i := 0; i < aluIters; i++ {
		a = a*3 + 1
		b = b*5 + a>>60
		c = c*7 + 3
		d = d*9 + c>>61
	}
	p.sink = a ^ b ^ c ^ d
	t2 := time.Now()
	s.alu = t2.Sub(t1)

	// The Go allocator and a growing map: what every workload here does
	// between its hashes. The map is garbage when sample returns. It is
	// the one kernel that shares something with the program, the heap: a
	// collection that starts inside it marks the program's live memory.
	// One sample in ten meets one, and the median over blocks passes it by.
	m := make(map[uint64]*[4]uint64, 1024)
	for i := uint64(0); i < allocObjs; i++ {
		m[i*2654435761] = &[4]uint64{i}
	}
	for i := uint64(0); i < allocObjs; i++ {
		p.sink += m[i*2654435761][0]
	}
	runtime.KeepAlive(m)
	s.alloc = time.Since(t2)
	return s
}

// slowdown is how many times slower than nominal the machine ran the
// program when the sample was taken, as far as the kernels can tell.
func (s speedSample) slowdown() float64 {
	rel := func(d, nominal time.Duration) float64 { return float64(d) / float64(nominal) }
	return math.Pow(rel(s.alu, aluNominal), aluShare) *
		math.Pow(rel(s.mem, memNominal), memShare) *
		math.Pow(rel(s.alloc, allocNominal), allocShare)
}
