package main

import (
	"math"
	"testing"
)

func TestCheckDays(t *testing.T) {
	for _, tc := range []struct {
		days float64
		ok   bool
	}{
		{0, true},
		{0.01, true},
		{2, true},
		{7, true},
		{10675, true},
		{10676, false},
		{1e300, false},
		{-1, false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
		{math.NaN(), false},
	} {
		if err := checkDays(tc.days); (err == nil) != tc.ok {
			t.Errorf("checkDays(%v) = %v, want ok=%v", tc.days, err, tc.ok)
		}
	}
}
