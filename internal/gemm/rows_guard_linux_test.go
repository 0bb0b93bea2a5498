//go:build linux

package gemm

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"
)

// guardedArena maps data regions of size pages each, every one between
// two inaccessible pages, so a slice placed flush against either end of
// a region faults on the first access past that end.
type guardedArena struct {
	mem        []byte
	page, size int
}

func newGuardedArena(t *testing.T, regions, size int) *guardedArena {
	t.Helper()
	page := os.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, (regions*(size+1)+1)*page, syscall.PROT_NONE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	t.Cleanup(func() { syscall.Munmap(mem) })
	a := &guardedArena{mem: mem, page: page, size: size}
	for r := 0; r < regions; r++ {
		if err := syscall.Mprotect(mem[a.start(r):a.start(r)+size*page], syscall.PROT_READ|syscall.PROT_WRITE); err != nil {
			t.Skipf("mprotect: %v", err)
		}
	}
	return a
}

// start returns the byte offset of region r's first data page.
func (a *guardedArena) start(r int) int { return (r*(a.size+1) + 1) * a.page }

// slice returns n float32s of region r, flush against its start when
// atEnd is false and against its end when it is true.
func (a *guardedArena) slice(r, n int, atEnd bool) []float32 {
	off := a.start(r)
	if atEnd {
		off += a.size*a.page - 4*n
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*float32)(unsafe.Pointer(&a.mem[off])), n)
}

// guarded runs f, failing the test if it panics (a fault, with
// SetPanicOnFault on).
func guarded(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %v", what, r)
		}
	}()
	f()
}

// TestRowsStayInsideTheirPlane runs every variant's rows with source
// and destination flush against an inaccessible page, at either end:
// a row that reads or writes even one element outside its slices
// faults, and the fault fails the test.
func TestRowsStayInsideTheirPlane(t *testing.T) {
	a := newGuardedArena(t, 2, 2)
	maxElems := 2 * a.page / 4
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	rng := rand.New(rand.NewSource(47))
	for _, name := range KernelVariants() {
		rows := VariantRows(name)
		for _, atEnd := range []bool{false, true} {
			for n := 0; n <= 80; n++ {
				src, dst := a.slice(0, n, atEnd), a.slice(1, n, atEnd)
				copy(src, randomSlice(rng, n))
				guarded(t, fmt.Sprintf("%s ReLU n=%d atEnd=%v", name, n, atEnd), func() { rows.ReLU(dst, src) })
				guarded(t, fmt.Sprintf("%s Affine n=%d atEnd=%v", name, n, atEnd), func() { rows.Affine(dst, src, 0.5, 1) })
			}
			for h := 1; h <= 40; h += 3 {
				for w := 1; w <= 40; w++ {
					for _, stride := range []int{1, 2} {
						if h*w > maxElems {
							continue
						}
						oh, ow := (h-1)/stride+1, (w-1)/stride+1
						src, dst := a.slice(0, h*w, atEnd), a.slice(1, oh*ow, atEnd)
						copy(src, randomSlice(rng, h*w))
						k := randomSlice(rng, 9)
						guarded(t, fmt.Sprintf("%s Depthwise3x3 %dx%d stride %d atEnd=%v", name, h, w, stride, atEnd), func() {
							rows.Depthwise3x3(dst, src, h, w, stride, k, 0.25)
						})
					}
				}
			}
		}
	}
}
