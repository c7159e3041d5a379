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

func TestParseTopology(t *testing.T) {
	for _, tc := range []struct {
		in           string
		racks, zones int
		ok           bool
	}{
		{"", 0, 0, true},
		{"4x2", 4, 2, true},
		{"3", 3, 1, true},
		{"1024x1", 1024, 1, true},
		{"1024x1024", 1024, 1024, true},
		{"0", 0, 0, false},
		{"0x1", 0, 0, false},
		{"1025", 0, 0, false},
		{"1025x2", 0, 0, false},
		{"4611686018427387904x2", 0, 0, false},
		{"1000000000x1", 0, 0, false},
		{"2x3", 0, 0, false},
		{"4x0", 0, 0, false},
		{"x2", 0, 0, false},
	} {
		r, z, err := parseTopology(tc.in)
		if (err == nil) != tc.ok || r != tc.racks || z != tc.zones {
			t.Errorf("parseTopology(%q) = %d, %d, %v; want %d, %d, ok=%v", tc.in, r, z, err, tc.racks, tc.zones, tc.ok)
		}
	}
}
