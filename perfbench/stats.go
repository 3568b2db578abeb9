package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (the mean of the two middles for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tail returns the highest percentile of tailLadder that has at least ten
// samples beyond it, and the nearest-rank value at that percentile. With
// fewer than twenty samples no percentile qualifies and the maximum is
// reported as percentile 100.
func tail(xs []float64) (pct, value float64) {
	if len(xs) == 0 {
		return 100, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	for _, p := range tailLadder {
		rank := int(math.Ceil(p / 100 * n))
		if len(s)-rank >= 10 {
			return p, s[rank-1]
		}
	}
	return 100, s[len(s)-1]
}

// digest folds integers into a 64-bit FNV-1a hash, byte by byte: the
// pinned fingerprint of a run's simulated outputs.
type digest struct{ h uint64 }

func newDigest() digest { return digest{h: 14695981039346656037} }

func (d *digest) add(vs ...int64) {
	for _, v := range vs {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			d.h ^= u & 0xff
			d.h *= 1099511628211
			u >>= 8
		}
	}
}
