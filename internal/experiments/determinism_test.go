package experiments

import (
	"reflect"
	"testing"
)

// The whole simulation must be a pure function of its seed: identical
// seeds give byte-identical tables, different seeds (for stochastic
// experiments) may differ.

func TestFig5Deterministic(t *testing.T) {
	a := Fig5Plan(Options{Quick: true, Seed: 7}).runSerial(newWorld()).(*Fig5Result)
	b := Fig5Plan(Options{Quick: true, Seed: 7}).runSerial(newWorld()).(*Fig5Result)
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("Fig5 not deterministic for equal seeds")
	}
}

func TestFig6Deterministic(t *testing.T) {
	a := Fig6Plan(Options{Quick: true, Seed: 5}).runSerial(newWorld()).(*Fig6Result)
	b := Fig6Plan(Options{Quick: true, Seed: 5}).runSerial(newWorld()).(*Fig6Result)
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("Fig6 not deterministic for equal seeds")
	}
}

func TestFig8Deterministic(t *testing.T) {
	a := Fig8Plan(Options{Quick: true, Seed: 3}).runSerial(newWorld()).(*Fig8Result)
	b := Fig8Plan(Options{Quick: true, Seed: 3}).runSerial(newWorld()).(*Fig8Result)
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatal("Fig8 not deterministic for equal seeds")
	}
}

func TestFig2SeedSensitivity(t *testing.T) {
	a := Fig2Plan(Options{Quick: true, Seed: 1}).runSerial(newWorld()).(*Fig2Result)
	b := Fig2Plan(Options{Quick: true, Seed: 2}).runSerial(newWorld()).(*Fig2Result)
	if reflect.DeepEqual(a.Points, b.Points) {
		t.Fatal("different seeds produced identical churn — generator ignores the seed")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "t", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	out := tab.String()
	if out == "" || out[0] != '#' {
		t.Fatalf("table rendering broken: %q", out)
	}
}
