//go:build linux

package tensor

import (
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// Guard-page placement for kernel specs: canary words catch a kernel that
// writes past its extent, a PROT_NONE page next to an operand catches one
// that reads past it. The mappings are the test's own and are released
// when the test ends; a guarded slice must not outlive it.

// guarded returns a slice of n elements whose end sits slack elements
// before a PROT_NONE page (the slack is reachable by reslicing up to
// cap): a read of element n+slack faults.
func guarded[T any](t testing.TB, n, slack int) []T {
	var z T
	p := guardMap(t, (n+slack)*int(unsafe.Sizeof(z)), false)
	return unsafe.Slice((*T)(p), n+slack)[:n]
}

// guardedStart returns a slice of n elements that starts right after a
// PROT_NONE page: a read before element 0 faults.
func guardedStart[T any](t testing.TB, n int) []T {
	var z T
	return unsafe.Slice((*T)(guardMap(t, n*int(unsafe.Sizeof(z)), true)), n)
}

// guardMap maps size > 0 bytes against a PROT_NONE page, after it when
// atStart is set, else before it.
func guardMap(t testing.TB, size int, atStart bool) unsafe.Pointer {
	t.Helper()
	page := os.Getpagesize()
	span := (size + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, span+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("guard page: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // a failed unmap only leaks the test's pages
	guard, at := mem[span:], span-size
	if atStart {
		guard, at = mem[:page], page
	}
	if err := syscall.Mprotect(guard, syscall.PROT_NONE); err != nil {
		t.Fatalf("guard page: %v", err)
	}
	return unsafe.Pointer(&mem[at])
}

// faultFree runs f, which must stay on the calling goroutine, with memory
// faults turned into panics, and fails the test by name if f faults (a
// guard page read) or panics.
func faultFree(t testing.TB, what string, f func()) {
	t.Helper()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if f, ok := r.(interface{ Addr() uintptr }); ok {
			t.Fatalf("%s: fault at %#x: %v", what, f.Addr(), r)
		} else if r != nil {
			t.Fatalf("%s: %v", what, r)
		}
	}()
	f()
}
