// Package generate defines the artifacts of VEGA's Stage 3 — the
// target-specific functions and whole backends synthesized for a new
// target — together with their confidence annotations and rendering.
package generate

import (
	"fmt"
	"strings"

	"vega/internal/confidence"
	"vega/internal/cpp"
)

// Statement is one generated statement with its confidence scores.
type Statement struct {
	Row     int     // template row index
	Text    string  // generated text ("" when predicted absent)
	Absent  bool    // model predicted the statement does not exist
	Score   float64 // model-emitted confidence (the paper's annotation)
	Formula float64 // Eq. (1) score computed from the feature vector
}

// Kept reports whether the statement survives the confidence filter.
func (s Statement) Kept() bool {
	return !s.Absent && s.Text != "" && confidence.Likely(s.Score)
}

// VerifyStatus is the outcome of the verify-and-repair loop for one
// function (zero value = verification never ran).
type VerifyStatus int

// Verification statuses.
const (
	// VerifyNone: verification was not requested (or skipped under
	// pressure) for this function.
	VerifyNone VerifyStatus = iota
	// VerifyNoOracle: no ground-truth implementation exists to execute
	// against, so the function cannot be verified.
	VerifyNoOracle
	// VerifyPassed: the function as generated passed every regression
	// case on the first attempt.
	VerifyPassed
	// VerifyRepaired: the initial function diverged, and counterexample-
	// guided re-decoding produced a passing variant within the round
	// bound; Statements holds the repaired form.
	VerifyRepaired
	// VerifyFailed: every repair round was exhausted without a passing
	// variant; Statements holds the ORIGINAL generation (repair never
	// makes a function worse than plain generation).
	VerifyFailed
)

func (s VerifyStatus) String() string {
	switch s {
	case VerifyNoOracle:
		return "no-oracle"
	case VerifyPassed:
		return "passed"
	case VerifyRepaired:
		return "repaired"
	case VerifyFailed:
		return "failed"
	default:
		return "unverified"
	}
}

// Verification records the verify-and-repair outcome attached to a
// generated function when Config.Verify is on.
type Verification struct {
	Status VerifyStatus
	// Rounds counts the CEGAR repair rounds executed (0 when the function
	// passed immediately or was never repaired).
	Rounds int
	// Counterexample is the human-readable minimal counterexample of the
	// last failing verification: the input values and the first diverging
	// statement. Empty for passing functions.
	Counterexample string
	// RepairedRows lists the template rows whose statements were replaced
	// by the repair loop (only set when Status is VerifyRepaired).
	RepairedRows []int
}

// Function is one generated target-specific function.
type Function struct {
	Name       string // interface function name
	Module     string
	Target     string
	Statements []Statement
	// Err records why generation crashed for this function; a failed
	// function carries no statements and scores confidence 0, so it is
	// flagged for manual review instead of aborting the backend.
	Err string
	// Verify is the verify-and-repair outcome; nil when verification was
	// not requested.
	Verify *Verification
}

// FailedFunction builds the zero-confidence placeholder emitted when
// generating a function panics: the backend stays complete and the
// failure is visible in the confidence review.
func FailedFunction(name, module, target string, err error) *Function {
	return &Function{Name: name, Module: module, Target: target, Err: err.Error()}
}

// Failed reports whether generation crashed for this function.
func (f *Function) Failed() bool { return f.Err != "" }

// Confidence returns the function-level score: the first statement's
// (the function definition line).
func (f *Function) Confidence() float64 {
	if len(f.Statements) == 0 {
		return 0
	}
	return f.Statements[0].Score
}

// Generated reports whether VEGA emitted the function at all (its
// definition line exists and clears the threshold).
func (f *Function) Generated() bool {
	return len(f.Statements) > 0 && f.Statements[0].Kept()
}

// Render joins the surviving statements into source text, repairing brace
// balance: when the confidence filter drops a block header, its orphaned
// closer is dropped too, and unclosed blocks are closed at the end — the
// structural half of the paper's "remove sub-threshold statements" step.
func (f *Function) Render() string {
	var b strings.Builder
	depth := 0
	debt := 0 // dropped block headers whose closers must be dropped too
	for _, s := range f.Statements {
		opens := strings.Count(s.Text, "{")
		closes := strings.Count(s.Text, "}")
		if !s.Kept() {
			if opens > closes {
				debt += opens - closes
			}
			continue
		}
		if debt > 0 && strings.HasPrefix(s.Text, "}") {
			// This closer (or "} else {" continuation) belongs to a
			// dropped header; an "} else {" keeps the debt alive for the
			// else-block's own closer.
			if closes > opens {
				debt--
			}
			continue
		}
		if closes > opens && depth+opens-closes < 0 {
			continue // orphaned closer beyond function depth
		}
		depth += opens - closes
		b.WriteString(s.Text)
		b.WriteString("\n")
	}
	for ; depth > 0; depth-- {
		b.WriteString("}\n")
	}
	return b.String()
}

// RenderAnnotated renders every statement with its confidence score, the
// form developers review (Fig. 4(d)).
func (f *Function) RenderAnnotated() string {
	var b strings.Builder
	if f.Err != "" {
		fmt.Fprintf(&b, "0.00 | <generation failed: %s>\n", f.Err)
	}
	for _, s := range f.Statements {
		text := s.Text
		if s.Absent {
			text = "<absent>"
		}
		fmt.Fprintf(&b, "%4.2f | %s\n", s.Score, text)
	}
	return b.String()
}

// Parse attempts to parse the rendered function.
func (f *Function) Parse() (*cpp.Node, error) {
	src := f.Render()
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("generate: %s for %s: empty function", f.Name, f.Target)
	}
	return cpp.ParseFunction(src)
}

// Backend is a complete generated backend for one target.
type Backend struct {
	Target    string
	Functions []*Function
	// Seconds records per-module generation time for Fig. 7.
	Seconds map[string]float64
	// Recovered counts functions whose generation panicked and was
	// converted into a zero-confidence placeholder.
	Recovered int
	// Partial is set when generation stopped early (context canceled or
	// timed out); Functions holds what completed before the stop.
	Partial bool
	// Truncated is set when the request's MaxFunctions cap cut the task
	// list short — a deliberate degradation (load shedding), distinct
	// from Partial's "stopped by cancellation".
	Truncated bool
	// Verified counts functions whose final artifact passed execution
	// against ground truth (VerifyPassed + VerifyRepaired); zero when
	// verification was off.
	Verified int
	// Repaired counts functions recovered by counterexample-guided
	// repair (VerifyRepaired).
	Repaired int
	// RepairFailed counts functions that diverged and exhausted every
	// repair round (VerifyFailed).
	RepairFailed int
}

// ByModule groups the functions per module in stable order.
func (b *Backend) ByModule() map[string][]*Function {
	out := make(map[string][]*Function)
	for _, f := range b.Functions {
		out[f.Module] = append(out[f.Module], f)
	}
	return out
}

// Function looks up a generated function by interface name.
func (b *Backend) Function(name string) *Function {
	for _, f := range b.Functions {
		if f.Name == name {
			return f
		}
	}
	return nil
}
