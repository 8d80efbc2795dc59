package main

import (
	"syscall"
	"unsafe"
)

// offHeapInt64s returns an empty []int64 with room for n values in an
// anonymous mapping outside the Go heap, and the function that unmaps it.
// The measured pass pools millions of virtual latencies; on the Go heap
// that pool is live memory, so the collector's heap goal grows with the
// run, collections get rarer, and the program under test speeds up the
// longer the harness has been running. Off the heap, the collector's pace
// is set by the program's own memory alone. An append beyond n moves the
// values to the Go heap and stays correct.
func offHeapInt64s(n int) ([]int64, func(), error) {
	b, err := syscall.Mmap(-1, 0, n*8, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	release := func() { _ = syscall.Munmap(b) } // nothing to do about a failed unmap of a private mapping
	return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n)[:0], release, nil
}
