//go:build amd64

package tensor

// The vector transcendentals (expvec_amd64.s) are replicas, not
// approximations: every lane runs the scalar library's own sequence of
// IEEE operations, so each result has the bits math.Exp or math.Tanh
// would give. math.Exp on amd64 is assembly with an FMA branch taken
// exactly when the CPU has AVX and FMA; the exp replica is that branch,
// so it runs only on such CPUs (FMA here, AVX through useAVX2).

//go:noescape
func expAVX2(dst, src *float64, n int) int

//go:noescape
func expShift32AVX2(dst, src *float32, n int, shift float32) int

//go:noescape
func geluAVX2(dst, src, deriv *float32, n int) int

var cpuFMA = detectFMA()

func detectFMA() bool {
	_, _, c1, _ := cpuidex(1, 0)
	return c1&(1<<12) != 0 // CPUID.1:ECX[12] = FMA
}

// expVec reports whether the exp replicas may run.
func expVec() bool { return useAVX2 && cpuFMA }
