// Package faultinject provides named fault points for exercising the
// pipeline's recovery paths. A fault point is armed either
// programmatically (tests) or through the VEGA_FAULTS environment
// variable (CLIs), and fires at most once per arming when a caller asks
// whether it should fail at a matching site.
//
// The environment form is a semicolon-separated list of point=spec
// pairs, e.g.
//
//	VEGA_FAULTS="generate-panic=getRelocType;train-nan=2"
//
// A spec of "*" (or an empty spec) matches every key offered at that
// point; otherwise the spec must equal the key exactly. All operations
// are safe for concurrent use.
package faultinject

import (
	"log"
	"os"
	"sort"
	"strings"
	"sync"
)

// Point names a fault site compiled into the pipeline.
type Point string

const (
	// CheckpointCorrupt flips one payload byte of a checkpoint right
	// after it is written; key = destination path.
	CheckpointCorrupt Point = "checkpoint-corrupt"
	// GeneratePanic panics inside GenerateFunction; key = interface
	// function name.
	GeneratePanic Point = "generate-panic"
	// GenerateCancel aborts backend generation as if the context had
	// been canceled; key = module name.
	GenerateCancel Point = "generate-cancel"
	// TrainNaN poisons one model parameter with NaN at the start of an
	// epoch; key = decimal epoch index.
	TrainNaN Point = "train-nan"
	// TrainCancel stops training as if the context had been canceled;
	// key = decimal epoch index.
	TrainCancel Point = "train-cancel"
	// ServeAdmitReject forces the serving admission gate to shed a
	// request as if the queue were full (429); key = target name.
	ServeAdmitReject Point = "serve-admit-reject"
	// ServeSwapFail fails the snapshot health check during a hot reload,
	// so the old snapshot must stay serving; key = checkpoint path.
	ServeSwapFail Point = "serve-swap-fail"
	// ServeHandlerPanic panics inside the generate request handler so
	// the request-level recovery path (degraded 200, never a 500) is
	// exercisable; key = target name.
	ServeHandlerPanic Point = "serve-handler-panic"
)

// registry lists every compiled-in fault point. VEGA_FAULTS entries are
// validated against it, so a typo in a point name is reported instead of
// being armed forever without ever firing.
var registry = map[Point]bool{
	CheckpointCorrupt: true,
	GeneratePanic:     true,
	GenerateCancel:    true,
	TrainNaN:          true,
	TrainCancel:       true,
	ServeAdmitReject:  true,
	ServeSwapFail:     true,
	ServeHandlerPanic: true,
}

// Points returns every registered fault point name, sorted — the list
// VEGA_FAULTS specs are checked against, exported so operators and docs
// can enumerate what is armable.
func Points() []Point {
	out := make([]Point, 0, len(registry))
	for p := range registry {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

var (
	mu      sync.Mutex
	armed   map[Point]string
	fired   map[Point]int
	envOnce sync.Once
)

// loadEnv arms the points listed in VEGA_FAULTS. Called lazily so tests
// that never touch the package pay nothing. Unknown point names are
// skipped and logged once (per process), never armed: a typo'd spec used
// to sit armed forever without firing, invisible to the operator.
func loadEnv() {
	envOnce.Do(func() {
		specs, unknown := validateSpecs(parseSpecs(os.Getenv("VEGA_FAULTS")))
		if len(unknown) > 0 {
			log.Printf("faultinject: VEGA_FAULTS names unknown point(s) %v; known points: %v",
				unknown, Points())
		}
		for p, spec := range specs {
			armRaw(p, spec)
		}
	})
}

// validateSpecs splits parsed specs into the registered (armable) set and
// the sorted list of unknown point names.
func validateSpecs(specs map[Point]string) (valid map[Point]string, unknown []Point) {
	valid = make(map[Point]string, len(specs))
	for p, spec := range specs {
		if !registry[p] {
			unknown = append(unknown, p)
			continue
		}
		valid[p] = spec
	}
	sort.Slice(unknown, func(i, j int) bool { return unknown[i] < unknown[j] })
	return valid, unknown
}

// parseSpecs parses the VEGA_FAULTS syntax: "point=spec;point2=spec2".
func parseSpecs(s string) map[Point]string {
	out := make(map[Point]string)
	for _, pair := range strings.Split(s, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, _ := strings.Cut(pair, "=")
		out[Point(strings.TrimSpace(name))] = strings.TrimSpace(spec)
	}
	return out
}

func armRaw(p Point, spec string) {
	if armed == nil {
		armed = make(map[Point]string)
	}
	armed[p] = spec
}

// warnedUnknown remembers which unknown point names have been logged, so
// a hot loop arming a typo'd point cannot flood the log. Guarded by mu.
var warnedUnknown map[Point]bool

// Arm arms a fault point with a spec ("" or "*" matches any key).
// Unregistered points are refused and logged once: arming a point the
// binary does not contain can never fire and would otherwise hide the
// mistake forever.
func Arm(p Point, spec string) {
	loadEnv()
	mu.Lock()
	defer mu.Unlock()
	if !registry[p] {
		if !warnedUnknown[p] {
			if warnedUnknown == nil {
				warnedUnknown = make(map[Point]bool)
			}
			warnedUnknown[p] = true
			log.Printf("faultinject: Arm(%q): unknown point; known points: %v", p, Points())
		}
		return
	}
	armRaw(p, spec)
}

// Disarm removes a single armed point.
func Disarm(p Point) {
	loadEnv()
	mu.Lock()
	defer mu.Unlock()
	delete(armed, p)
}

// Reset disarms every point and clears fire counts. Environment faults
// are not re-armed; tests call Reset to start from a clean slate.
func Reset() {
	loadEnv()
	mu.Lock()
	defer mu.Unlock()
	armed = nil
	fired = nil
}

// Should reports whether the fault at p should fire for key. A firing
// consumes the arming, so each armed fault triggers exactly once.
func Should(p Point, key string) bool {
	loadEnv()
	mu.Lock()
	defer mu.Unlock()
	spec, ok := armed[p]
	if !ok {
		return false
	}
	if spec != "" && spec != "*" && spec != key {
		return false
	}
	delete(armed, p)
	if fired == nil {
		fired = make(map[Point]int)
	}
	fired[p]++
	return true
}

// Armed reports whether p is currently armed (without consuming it).
func Armed(p Point) bool {
	loadEnv()
	mu.Lock()
	defer mu.Unlock()
	_, ok := armed[p]
	return ok
}

// Fired returns how many times p has fired since the last Reset.
func Fired(p Point) int {
	loadEnv()
	mu.Lock()
	defer mu.Unlock()
	return fired[p]
}
