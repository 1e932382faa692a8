//go:build amd64 && !purego

package sketch

// dotAVX2 returns Σ q[i]·x[i] over n points; n must be a multiple of 32 and
// at most vecChunk. Implemented in dot_amd64.s.
//
//go:noescape
func dotAVX2(q *int16, x *int8, n int) int64

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// The vector kernel is chosen once, here, from what the CPU and the operating
// system report: AVX2 itself (leaf 7), and AVX state that the OS saves across
// context switches (OSXSAVE, then XCR0 bits 1 and 2).
func init() {
	const (
		osxsave = 1 << 27 // leaf 1 ECX
		avx     = 1 << 28 // leaf 1 ECX
		avx2    = 1 << 5  // leaf 7 EBX
		ymmSSE  = 0b110   // XCR0: XMM and YMM state enabled
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return
	}
	if _, _, c, _ := cpuid(1, 0); c&osxsave == 0 || c&avx == 0 {
		return
	}
	if lo, _ := xgetbv(); lo&ymmSSE != ymmSSE {
		return
	}
	if _, b, _, _ := cpuid(7, 0); b&avx2 != 0 {
		vecDot, vecName = dotAVX2, "avx2"
	}
}
