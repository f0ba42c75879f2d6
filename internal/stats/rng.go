// Package stats provides the statistical building blocks shared by the
// estimators, generators and experiment harness: reproducible random number
// generation, discrete samplers, and summary statistics such as NRMSE.
package stats

import (
	"math/rand"
)

// splitMix64 advances a SplitMix64 state and returns the next 64-bit output.
// SplitMix64 is used only for seed derivation; the derived seeds feed
// math/rand sources. It gives high-quality decorrelated streams from a single
// root seed, which keeps every experiment reproducible while allowing each
// repetition (and each goroutine) to own an independent generator.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SeedSequence derives decorrelated child seeds from a root seed. It is the
// single source of randomness for the whole library: experiments derive one
// child per repetition, generators one child per phase, and so on.
type SeedSequence struct {
	state uint64
}

// NewSeedSequence returns a sequence rooted at seed.
func NewSeedSequence(seed int64) *SeedSequence {
	return &SeedSequence{state: uint64(seed)}
}

// Next returns the next derived seed.
func (s *SeedSequence) Next() int64 {
	return int64(splitMix64(&s.state))
}

// NextRand returns a new *rand.Rand seeded with the next derived seed.
func (s *SeedSequence) NextRand() *rand.Rand {
	return rand.New(rand.NewSource(s.Next()))
}

// Derive returns a seed deterministically bound to (root seed, tag), so
// callers can name their streams ("walk", "labels", ...) instead of
// depending on call order. Distinct tags do NOT always yield distinct
// seeds: each tag byte is XORed into the state, which then only advances by
// a constant, so tags differing in a few trailing bytes can collide —
// numbered tags do ("walker/11" and "walker/20" under root seed 1). Draw
// numbered streams (repetitions, walkers) from one SeedSequence instead.
func Derive(seed int64, tag string) int64 {
	state := uint64(seed)
	for _, b := range []byte(tag) {
		state ^= uint64(b)
		splitMix64(&state)
	}
	return int64(splitMix64(&state))
}
