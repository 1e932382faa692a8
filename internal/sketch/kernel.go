package sketch

import "math/bits"

// The sum of squares Exceeds compares has a closed form,
//
//	Σ(Q − X·2^s)² = ΣQ² − 2^(s+1)·ΣQX + 2^(2s)·ΣX²
//
// in which only ΣQX depends on both sides: ΣX² is stored with the row, ΣQ²
// with the query. Where the build and the CPU have a vector kernel for the
// inner product, Exceeds evaluates this instead of the scalar loop. Every
// quantity is an exact integer on both paths, so they decide the same
// inequality and return the same boolean; the vector path merely never
// abandons early, which the scalar path does only to save time.
//
// No overflow, given |Q| ≤ 2^14, |X| ≤ 127 and at most maxLen = 2^24 points:
//
//   - A lane of the kernel: |Q·X| ≤ 2^14·127 < 2^21, VPMADDWD adds two of them
//     (< 2^22), and each of the two accumulators takes one such sum per lane
//     per 32-point step. A call covers at most vecChunk = 2^14 points = 512
//     steps, so a lane stays below 512·2^22 = 2^31.
//   - The total, with A = ΣQ² ≤ 2^52, C = 2^(2s)·ΣX² and B = 2^(s+1)·ΣQX:
//     closedFormFits requires C < 2^62. By Cauchy–Schwarz |B| ≤ 2·√(A·C) ≤
//     A + C < 2^63, so B is an int64, and the result A + C − B ≤ 2·(A + C) <
//     2^64 is a uint64, which the wrapping arithmetic below then yields
//     exactly. (ΣX² < 2^38 and s ≤ maxShift, so the condition can only fail
//     for rows beyond 2^16 points.)
//
// Whatever does not fit takes the scalar loop.

// vecChunk is the most points one call of the vector kernel may cover.
const vecChunk = 1 << 14

// vecDot is the vector inner product over n points (n a multiple of 32, at
// most vecChunk), nil when the build (another architecture, -tags purego) or
// the CPU has none. Set once, by an init function.
var (
	vecDot  func(q *int16, x *int8, n int) int64
	vecName = "portable"
)

// Kernel names the kernel Exceeds runs on this machine: "avx2", or
// "portable" for the scalar loop.
func Kernel() string { return vecName }

// ForEachKernel calls f once per kernel this build and CPU can run, with
// that kernel selected: the portable one always, the vector one where there
// is one. It exists so that tests hold both to the same answers; it swaps a
// package variable, so nothing else may be using the package meanwhile.
func ForEachKernel(f func(name string)) {
	dot, name := vecDot, vecName
	defer func() { vecDot, vecName = dot, name }()
	vecDot, vecName = nil, "portable"
	f(vecName)
	if dot != nil {
		vecDot, vecName = dot, name
		f(name)
	}
}

// closedFormFits reports whether sumSqClosed is overflow-free for a row with
// the given ΣX² at the given shift.
func closedFormFits(xSumSq uint64, shift int) bool {
	return bits.Len64(xSumSq)+2*shift < 63
}

// sumSqClosed returns Σ(q[i] − x[i]·2^shift)² by the closed form. Callers
// check vecDot != nil and closedFormFits first.
func sumSqClosed(q []int16, qSumSq uint64, x []int8, xSumSq uint64, shift int) uint64 {
	n := len(x) &^ 31
	var dot int64
	for i := 0; i < n; i += vecChunk {
		dot += vecDot(&q[i], &x[i], min(vecChunk, n-i))
	}
	for i := n; i < len(x); i++ {
		dot += int64(q[i]) * int64(x[i])
	}
	return qSumSq + xSumSq<<(2*shift) - uint64(dot<<(shift+1))
}
