package tensor

import "testing"

// contractX·contractY rounds to exactly 1 in float64 (it is 1 − 2⁻⁶⁰);
// a fused multiply-add keeps the −2⁻⁶⁰.
var contractX, contractY, contractOne = 1 + 0x1p-30, 1 - 0x1p-30, 1.0

// The GELU and tanh replicas round every product and sum separately,
// because on amd64 Go does too: the compiler fuses x*y+z into one FMA
// only on architectures such as arm64, never on amd64 at any GOAMD64
// level. math.tanh and the GELU formula are Go code built under the
// same rules, so a toolchain that starts fusing on amd64 fails this
// test — `make test` reruns it at GOAMD64=v3 — and GELURow must then
// stop using the replica for that build.
func TestExactNoFMAContraction(t *testing.T) {
	if got := contractX*contractY - contractOne; got != 0 {
		t.Errorf("x*y - z = %g, want 0: the compiler fused it into an FMA", got)
	}
	if got := contractOne - contractX*contractY; got != 0 {
		t.Errorf("z - x*y = %g, want 0: the compiler fused it into an FMA", got)
	}
	if got := contractX*contractY + -contractOne; got != 0 {
		t.Errorf("x*y + z = %g, want 0: the compiler fused it into an FMA", got)
	}
}
