//go:build amd64

package gemm

// Hand-rolled CPU feature probe (the module is dependency-free, so no
// golang.org/x/sys/cpu). AVX2 use requires all three of:
//
//  1. CPUID.(EAX=1):ECX.OSXSAVE[27] — XGETBV is available and the OS
//     has enabled XSAVE;
//  2. XGETBV(XCR0) bits 1 and 2 — the OS preserves XMM and YMM state
//     across context switches;
//  3. CPUID.(EAX=7,ECX=0):EBX.AVX2[5] — the core executes AVX2.
//
// AVX-512F use requires those and two more:
//
//  4. XGETBV(XCR0) bits 5, 6 and 7 — the OS preserves the opmask
//     registers, the upper halves of ZMM0-15 (ZMM_Hi256) and ZMM16-31
//     (Hi16_ZMM);
//  5. CPUID.(EAX=7,ECX=0):EBX.AVX512F[16] — the core executes AVX-512
//     Foundation.
//
// Checking only the CPUID bit (3 or 5) is a classic real-world crash:
// a hypervisor or OS that does not save the wider state leaves the bit
// set while the instructions fault or corrupt registers.

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() (eax, edx uint32)

const (
	cpuidOSXSAVEBit = 1 << 27 // leaf 1 ECX
	cpuidAVX2Bit    = 1 << 5  // leaf 7 subleaf 0 EBX
	cpuidAVX512FBit = 1 << 16 // leaf 7 subleaf 0 EBX
	xcr0XMMBit      = 1 << 1
	xcr0YMMBit      = 1 << 2
	xcr0OpmaskBit   = 1 << 5
	xcr0ZMMHi256Bit = 1 << 6
	xcr0Hi16ZMMBit  = 1 << 7
	xcr0AVX2State   = xcr0XMMBit | xcr0YMMBit
	xcr0AVX512State = xcr0AVX2State | xcr0OpmaskBit | xcr0ZMMHi256Bit | xcr0Hi16ZMMBit
)

// simdSupport reports which micro-kernels the registers a probe read
// allow: maxLeaf is CPUID leaf 0's EAX, ecx1 leaf 1's ECX, xcr0 the low
// word of XCR0 and ebx7 leaf 7 subleaf 0's EBX. xcr0 and ebx7 are
// consulted only when the leaf and XGETBV behind them exist
// (maxLeaf >= 7, OSXSAVE set).
func simdSupport(maxLeaf, ecx1, xcr0, ebx7 uint32) (avx2, avx512 bool) {
	if maxLeaf < 7 || ecx1&cpuidOSXSAVEBit == 0 || xcr0&xcr0AVX2State != xcr0AVX2State {
		return false, false
	}
	avx2 = ebx7&cpuidAVX2Bit != 0
	avx512 = avx2 && ebx7&cpuidAVX512FBit != 0 && xcr0&xcr0AVX512State == xcr0AVX512State
	return avx2, avx512
}

// probeSIMD runs the probe on this host. XGETBV faults unless OSXSAVE
// is set, so XCR0 and leaf 7 are read only when simdSupport will
// consult them.
func probeSIMD() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	_, _, ecx1, _ := cpuidex(1, 0)
	var xcr0, ebx7 uint32
	if maxLeaf >= 7 && ecx1&cpuidOSXSAVEBit != 0 {
		xcr0, _ = xgetbv0()
		_, ebx7, _, _ = cpuidex(7, 0)
	}
	return simdSupport(maxLeaf, ecx1, xcr0, ebx7)
}
