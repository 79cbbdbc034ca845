package main

import (
	"math"
	"testing"
)

// TestCheckFlags pins which flag values msspfuzz refuses before running
// anything: a fault intensity outside [0, 1] and a seed count below one
// (a soak over no seeds reports itself clean), besides the existing
// interpreter, fusion and engine checks.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		faults               float64
		count                int
		interp, fuse, engine string
		ok                   bool
	}{
		{1, 1000, "fast", "on", "det", true},
		{0, 1, "slow", "off", "parallel", true},
		{0.5, 1, "both", "on", "det", true},
		{7, 1, "fast", "on", "det", false},
		{-1, 1, "fast", "on", "det", false},
		{math.NaN(), 1, "fast", "on", "det", false},
		{1, 0, "fast", "on", "det", false},
		{1, -3, "fast", "on", "det", false},
		{1, 1, "fsat", "on", "det", false},
		{1, 1, "fast", "maybe", "det", false},
		{1, 1, "fast", "on", "both", false},
		{1, 1, "both", "both", "det", false},
		{1, 1, "fast", "both", "parallel", false},
		{1, 1, "both", "on", "parallel", false},
	} {
		err := checkFlags(tc.faults, tc.count, tc.interp, tc.fuse, tc.engine)
		if (err == nil) != tc.ok {
			t.Errorf("checkFlags(%g, %d, %q, %q, %q) = %v, want ok=%v",
				tc.faults, tc.count, tc.interp, tc.fuse, tc.engine, err, tc.ok)
		}
	}
}

// TestCheckMix pins that -mix refuses the flags of the axes it draws per
// seed, and nothing else.
func TestCheckMix(t *testing.T) {
	for _, tc := range []struct {
		set []string
		ok  bool
	}{
		{nil, true},
		{[]string{"mix", "count", "seed", "out", "v", "require-coverage"}, true},
		{[]string{"mix", "faults"}, false},
		{[]string{"mix", "interp"}, false},
		{[]string{"mix", "fuse"}, false},
		{[]string{"mix", "engine"}, false},
		{[]string{"mix", "taint"}, false},
	} {
		if err := checkMix(tc.set); (err == nil) != tc.ok {
			t.Errorf("checkMix(%v) = %v, want ok=%v", tc.set, err, tc.ok)
		}
	}
}
