package main

import (
	"reflect"
	"testing"
)

// TestAggregateRepeatedRuns pins the -count folding: a repeated benchmark
// becomes one result carrying the median ns/op and metrics plus the
// ns/op range, a single run passes through untouched, and the order of
// first appearance is kept.
func TestAggregateRepeatedRuns(t *testing.T) {
	in := []result{
		{Name: "BenchmarkA-2", Iters: 3, NsPerOp: 100, Metrics: map[string]float64{"B/op": 5}},
		{Name: "BenchmarkB-2", Iters: 1, NsPerOp: 9},
		{Name: "BenchmarkA-2", Iters: 3, NsPerOp: 400, Metrics: map[string]float64{"B/op": 8}},
		{Name: "BenchmarkA-2", Iters: 3, NsPerOp: 200, Metrics: map[string]float64{"B/op": 6}},
		{Name: "BenchmarkA-2", Iters: 3, NsPerOp: 300, Metrics: map[string]float64{"B/op": 7}},
	}
	want := []result{
		{Name: "BenchmarkA-2", Iters: 3, NsPerOp: 250, Runs: 4, NsMin: 100, NsMax: 400,
			Metrics: map[string]float64{"B/op": 6.5}},
		{Name: "BenchmarkB-2", Iters: 1, NsPerOp: 9},
	}
	if got := aggregate(in); !reflect.DeepEqual(got, want) {
		t.Fatalf("aggregate = %+v, want %+v", got, want)
	}
}
