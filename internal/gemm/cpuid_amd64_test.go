//go:build amd64

package gemm

import (
	"slices"
	"testing"
)

// TestSIMDProbe table-tests the register checks behind dispatch: a
// kernel is usable only when every CPUID bit and every XCR0 state bit
// it needs is set, whatever the others say. Each case starts from a
// host with everything and takes one thing away.
func TestSIMDProbe(t *testing.T) {
	const (
		leaf      = 7
		ecx1      = cpuidOSXSAVEBit
		ebx7      = cpuidAVX2Bit | cpuidAVX512FBit
		xcr0      = xcr0AVX512State | 1 // x87 state is always on
		xcr0Avx2  = xcr0AVX2State | 1   // an OS that saves no AVX-512 state
		ebx7Avx2  = cpuidAVX2Bit
		otherBits = 1<<3 | 1<<8 | 1<<17 // BMI1, BMI2, AVX512DQ: not consulted
	)
	for _, tc := range []struct {
		name                 string
		maxLeaf, ecx1, xcr0  uint32
		ebx7                 uint32
		wantAVX2, wantAVX512 bool
	}{
		{"everything", leaf, ecx1, xcr0, ebx7, true, true},
		{"everything, unrelated bits set", leaf + 6, ecx1 | 1<<28, xcr0 | 1<<9, ebx7 | otherBits, true, true},
		{"AVX2 host", leaf, ecx1, xcr0Avx2, ebx7Avx2, true, false},
		{"no leaf 7", 6, ecx1, xcr0, ebx7, false, false},
		{"no OSXSAVE", leaf, 0, xcr0, ebx7, false, false},
		{"XCR0 lacks XMM", leaf, ecx1, xcr0 &^ xcr0XMMBit, ebx7, false, false},
		{"XCR0 lacks YMM", leaf, ecx1, xcr0 &^ xcr0YMMBit, ebx7, false, false},
		{"no AVX2 bit", leaf, ecx1, xcr0, cpuidAVX512FBit, false, false},
		// The bad-hypervisor case: the CPU reports AVX-512F but the OS
		// (or the VM) saves no ZMM state, so ZMM use would corrupt
		// registers across context switches.
		{"AVX512F set, XCR0 without ZMM state", leaf, ecx1, xcr0Avx2, ebx7, true, false},
		{"XCR0 lacks opmask", leaf, ecx1, xcr0 &^ xcr0OpmaskBit, ebx7, true, false},
		{"XCR0 lacks ZMM_Hi256", leaf, ecx1, xcr0 &^ xcr0ZMMHi256Bit, ebx7, true, false},
		{"XCR0 lacks Hi16_ZMM", leaf, ecx1, xcr0 &^ xcr0Hi16ZMMBit, ebx7, true, false},
		{"no AVX512F bit", leaf, ecx1, xcr0, ebx7Avx2 | otherBits, true, false},
	} {
		avx2, avx512 := simdSupport(tc.maxLeaf, tc.ecx1, tc.xcr0, tc.ebx7)
		if avx2 != tc.wantAVX2 || avx512 != tc.wantAVX512 {
			t.Errorf("%s: simdSupport = (avx2 %v, avx512 %v), want (%v, %v)", tc.name, avx2, avx512, tc.wantAVX2, tc.wantAVX512)
		}
	}
}

// TestSIMDProbeRegistersWhatItReports ties the host's probe to the
// registry: a vector kernel is registered exactly when the probe allows
// it, the wider one first.
func TestSIMDProbeRegistersWhatItReports(t *testing.T) {
	avx2, avx512 := probeSIMD()
	names := KernelVariants()
	if got := slices.Contains(names, "avx2-8x8"); got != avx2 {
		t.Errorf("avx2-8x8 registered = %v, probe says %v (variants %v)", got, avx2, names)
	}
	if got := slices.Contains(names, "avx512-8x16"); got != avx512 {
		t.Errorf("avx512-8x16 registered = %v, probe says %v (variants %v)", got, avx512, names)
	}
	if avx512 && names[0] != "avx512-8x16" {
		t.Errorf("variants = %v, want avx512-8x16 first", names)
	}
	t.Logf("probe: avx2 %v, avx512 %v; variants %v", avx2, avx512, names)
}
