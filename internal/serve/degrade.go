package serve

import (
	"fmt"

	"vega/internal/core"
)

// DegradePolicy is the graceful-degradation ladder applied between
// admission and execution. Rather than a binary serve-or-shed, pressure
// at or above At cheapens requests in two ways, each marked explicitly in
// the response so a degraded 200 is never mistaken for a full-fidelity
// one:
//
//   - whole-backend requests are truncated to TruncateFunctions
//     functions;
//   - verify-enabled requests keep verification but skip the CEGAR
//     repair rounds (the most expensive re-decode work): functions are
//     still verified and statused, but divergences are reported instead
//     of repaired.
//
// Pressure is Scheduler.Pressure(): (waiting+running)/(queue+workers).
type DegradePolicy struct {
	// At is the pressure at which both rungs fire (0 disables them).
	At float64
	// TruncateFunctions is the per-request function cap applied at At
	// (ignored when the request already asks for fewer; 0 disables
	// truncation).
	TruncateFunctions int
}

// DefaultDegradePolicy mirrors the queue-sizing rationale in DESIGN.md:
// start truncating and dropping repair rounds at three quarters load.
func DefaultDegradePolicy() DegradePolicy {
	return DegradePolicy{At: 0.75, TruncateFunctions: 16}
}

// Apply folds the ladder into a request's GenOptions at the given
// pressure, returning the adjusted options and the human-readable reasons
// for each rung that fired (empty = full fidelity).
//
// The MaxFunctions rung is special: lowering the cap only degrades the
// response when the cap actually binds (the backend comes back
// Truncated), which is unknowable at admission. Its reason is therefore
// returned separately as truncReason, and the response layer appends it
// to the degrade reasons only on a Truncated backend — a scoped request
// smaller than the cap stays a full-fidelity 200.
func (d DegradePolicy) Apply(opt core.GenOptions, pressure float64) (_ core.GenOptions, reasons []string, truncReason string) {
	if d.At <= 0 || pressure < d.At {
		return opt, nil, ""
	}
	if d.TruncateFunctions > 0 && (opt.MaxFunctions <= 0 || opt.MaxFunctions > d.TruncateFunctions) {
		opt.MaxFunctions = d.TruncateFunctions
		truncReason = fmt.Sprintf("maxFunctions=%d: pressure %.2f >= %.2f",
			d.TruncateFunctions, pressure, d.At)
	}
	if opt.Verify && !opt.SkipRepair {
		opt.SkipRepair = true
		reasons = append(reasons,
			fmt.Sprintf("repair rounds skipped: pressure %.2f >= %.2f", pressure, d.At))
	}
	return opt, reasons, truncReason
}
