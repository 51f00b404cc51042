//go:build race

package model

// raceEnabled gates pool-behavior tests: under the race detector
// sync.Pool deliberately drops Puts at random, so pool reuse and
// allocation-count assertions are meaningless there.
const raceEnabled = true
