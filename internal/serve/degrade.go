package serve

import (
	"fmt"

	"vega/internal/core"
)

// DegradePolicy is the graceful-degradation ladder applied between
// admission and execution. Rather than a binary serve-or-shed, high
// pressure cheapens requests in two rungs, each marked explicitly in the
// response so a degraded 200 is never mistaken for a full-fidelity one:
//
//  1. pressure >= TruncateAt:   whole-backend requests are truncated to
//     TruncateFunctions functions.
//  2. pressure >= SkipRepairAt: verify-enabled requests keep verification
//     but skip the CEGAR repair rounds (the most expensive re-decode work).
//
// Pressure is Scheduler.Pressure(): (waiting+running)/(queue+workers).
type DegradePolicy struct {
	// TruncateAt is the pressure at which MaxFunctions truncation kicks
	// in (0 disables the rung).
	TruncateAt float64
	// SkipRepairAt is the pressure at which verify-enabled requests stop
	// running repair rounds — functions are still verified and statused,
	// but divergences are reported instead of repaired (0 disables).
	SkipRepairAt float64
	// TruncateFunctions is the per-request function cap applied at the
	// TruncateAt rung (ignored when the request already asks for fewer).
	TruncateFunctions int
}

// DefaultDegradePolicy mirrors the queue-sizing rationale in DESIGN.md:
// start truncating (and dropping repair rounds) at three quarters load.
func DefaultDegradePolicy() DegradePolicy {
	return DegradePolicy{TruncateAt: 0.75, SkipRepairAt: 0.75, TruncateFunctions: 16}
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
	if d.TruncateAt > 0 && pressure >= d.TruncateAt && d.TruncateFunctions > 0 {
		if opt.MaxFunctions <= 0 || opt.MaxFunctions > d.TruncateFunctions {
			opt.MaxFunctions = d.TruncateFunctions
			truncReason = fmt.Sprintf("maxFunctions=%d: pressure %.2f >= %.2f",
				d.TruncateFunctions, pressure, d.TruncateAt)
		}
	}
	if d.SkipRepairAt > 0 && pressure >= d.SkipRepairAt && opt.Verify && !opt.SkipRepair {
		opt.SkipRepair = true
		reasons = append(reasons,
			fmt.Sprintf("repair rounds skipped: pressure %.2f >= %.2f", pressure, d.SkipRepairAt))
	}
	return opt, reasons, truncReason
}
