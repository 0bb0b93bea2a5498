//go:build linux

package gemm

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestPackedGEMMStaysInsideItsOperands runs ParallelCfg and
// ParallelPacker under every variant with A, B, C and the scratch each
// flush against an inaccessible page, at either end. The shapes cover
// exact multiples of the tile (the last strip, last panel and last tile
// read and written in place up to the page; 24x48 ends on a full
// 16-wide panel and 8x16 tile after two of them), ragged m and n (the copied
// strip, the packed panel, the merged edge tiles), a KC/NC-blocked
// config, one shared block split by strips, and a product wide enough
// to split by columns at 4 workers. Any read or write past an operand
// faults: on the test goroutine as a recovered panic, on a pool worker
// as a crash of the test binary.
func TestPackedGEMMStaysInsideItsOperands(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	shapes := [][3]int{{16, 16, 8}, {24, 48, 9}, {17, 23, 27}, {9, 3, 1}, {160, 4 * panelCols, 27}, {167, 4*panelCols + 1, 27}}
	cfgs := []BlockConfig{{}, {KC: 5, NC: 16}, {NC: 1 << 20}}
	var most int
	for _, d := range shapes {
		for _, cfg := range cfgs {
			most = max(most, d[0]*d[2], d[2]*d[1], d[0]*d[1], ScratchLen(d[0], d[1], d[2], 4, cfg))
		}
	}
	page := os.Getpagesize()
	arena := newGuardedArena(t, 4, (4*most+page-1)/page)
	rng := rand.New(rand.NewSource(48))
	for _, d := range shapes {
		m, n, k := d[0], d[1], d[2]
		a0, b0, c0 := randomSlice(rng, m*k), randomSlice(rng, k*n), randomSlice(rng, m*n)
		for _, name := range KernelVariants() {
			for _, cfg := range cfgs {
				cfg.Kernel = name
				for _, w := range []int{1, 4} {
					for _, atEnd := range []bool{false, true} {
						a, b, c := arena.slice(0, m*k, atEnd), arena.slice(1, k*n, atEnd), arena.slice(2, m*n, atEnd)
						scratch := arena.slice(3, ScratchLen(m, n, k, w, cfg), atEnd)
						copy(a, a0)
						copy(b, b0)
						what := fmt.Sprintf("%dx%dx%d cfg=%+v workers=%d atEnd=%v", m, n, k, cfg, w, atEnd)
						copy(c, c0)
						guarded(t, "ParallelCfg "+what, func() { ParallelCfg(m, n, k, a, b, c, Bias{}, w, cfg, scratch) })
						copy(c, c0)
						guarded(t, "ParallelPacker "+what, func() { ParallelPacker(m, n, k, a, matrixPacker{n, b}, c, Bias{}, w, cfg, scratch) })
					}
				}
			}
		}
	}
}
