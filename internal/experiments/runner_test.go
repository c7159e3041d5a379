package experiments

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_registry.sha256")

func TestTrialSeed(t *testing.T) {
	if TrialSeed(7, 0) != 7 {
		t.Fatal("trial 0 must reuse the base seed")
	}
	seen := map[uint64]bool{}
	for trial := 0; trial < 64; trial++ {
		s := TrialSeed(7, trial)
		if s == 0 {
			t.Fatalf("trial %d derived seed 0, which Options would remap", trial)
		}
		if seen[s] {
			t.Fatalf("trial %d repeats an earlier seed", trial)
		}
		seen[s] = true
		if s != TrialSeed(7, trial) {
			t.Fatalf("TrialSeed not deterministic at trial %d", trial)
		}
	}
	if TrialSeed(7, 1) == TrialSeed(8, 1) {
		t.Fatal("adjacent base seeds collide at trial 1")
	}
}

func TestRunUnknownName(t *testing.T) {
	if _, err := Run([]string{"fig1", "nope"}, Options{Quick: true}, 1, 1); err == nil {
		t.Fatal("unknown experiment name did not error")
	}
}

// TestRunParallelMatchesSerial is the determinism guard for the
// worker pool: the same batch across 1 and 8 workers, 2 trials each,
// must encode to identical bytes in every format.
func TestRunParallelMatchesSerial(t *testing.T) {
	names := []string{"fig5", "fig2", "abl-policy", "pluglat", "cluster-scale"}
	opts := Options{Seed: 3, Quick: true}
	const trials = 2
	serial, err := Run(names, opts, trials, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(names, opts, trials, 8)
	if err != nil {
		t.Fatal(err)
	}
	encodeAll := func(reports []Report) []byte {
		var buf bytes.Buffer
		if err := EncodeText(&buf, reports, trials); err != nil {
			t.Fatal(err)
		}
		if err := EncodeJSON(&buf, reports); err != nil {
			t.Fatal(err)
		}
		if err := EncodeCSV(&buf, reports); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encodeAll(serial), encodeAll(par)) {
		t.Fatal("parallel run differs from serial run")
	}
	// Order and seed schedule must follow (name position, trial).
	for i, n := range names {
		for tr := 0; tr < trials; tr++ {
			r := serial[i*trials+tr]
			if r.Experiment != n || r.Trial != tr || r.Seed != TrialSeed(3, tr) {
				t.Fatalf("report %d out of order: %+v", i*trials+tr, r)
			}
		}
	}
}

func TestSubSeed(t *testing.T) {
	if SubSeed(9) != 9 {
		t.Fatal("SubSeed with no dims must return the base")
	}
	seen := map[uint64]bool{}
	for cell := 0; cell < 256; cell++ {
		s := SubSeed(7, cell)
		if s == 0 {
			t.Fatalf("cell %d derived seed 0, which Options would remap", cell)
		}
		if seen[s] {
			t.Fatalf("cell %d repeats an earlier stream", cell)
		}
		seen[s] = true
	}
	// Multi-dimensional coordinates must not alias their flattened
	// neighbours: (trial 1, cell 0) != (trial 0, cell 1) style collisions.
	if SubSeed(7, 1, 0) == SubSeed(7, 0, 1) {
		t.Fatal("adjacent (trial, cell) coordinates collide")
	}
	if SubSeed(7, 2) == SubSeed(8, 2) {
		t.Fatal("adjacent base seeds collide at the same coordinate")
	}
	// TrialSeed is SubSeed's single-dimension form with the trial-0
	// identity.
	if TrialSeed(7, 0) != 7 || TrialSeed(7, 3) != SubSeed(7, 3) {
		t.Fatal("TrialSeed must be the one-dimensional SubSeed")
	}
}

// TestFullRegistryWorkerCountDeterminism is the cross-worker-count
// determinism guard the unified executor must uphold: the complete
// registry — every experiment's cells plus two trials — encodes to
// byte-identical JSON, CSV, and text at workers ∈ {1, 2, 8}. The bytes
// must also hash to testdata/quick_registry.sha256, which pins every
// quick-protocol table across refactors. The hash is an amd64
// reference (other architectures may fuse floating-point operations
// differently), so it is only compared on amd64. Regenerate with
//
//	go test ./internal/experiments -run FullRegistry -update
//
// only after an intentional change to the tables.
func TestFullRegistryWorkerCountDeterminism(t *testing.T) {
	names := Names()
	opts := Options{Seed: 3, Quick: true}
	const trials = 2
	encodeAll := func(reports []Report) []byte {
		var buf bytes.Buffer
		if err := EncodeText(&buf, reports, trials); err != nil {
			t.Fatal(err)
		}
		if err := EncodeJSON(&buf, reports); err != nil {
			t.Fatal(err)
		}
		if err := EncodeCSV(&buf, reports); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		reports, err := Run(names, opts, trials, workers)
		if err != nil {
			t.Fatal(err)
		}
		got := encodeAll(reports)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Fatalf("output at %d workers differs from 1 worker", workers)
		}
	}
	got := fmt.Sprintf("%x", sha256.Sum256(want))
	golden := filepath.Join("testdata", "quick_registry.sha256")
	if *update {
		if err := os.WriteFile(golden, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOARCH != "amd64" {
		t.Logf("registry sha256 %s (reference is amd64-only, not compared on %s)", got, runtime.GOARCH)
		return
	}
	if wantHash := strings.TrimSpace(string(ref)); got != wantHash {
		t.Fatalf("quick registry output drifted: sha256 %s, reference %s", got, wantHash)
	}
}

// TestRunCellStats checks the per-cell timing channel: every cell of
// every report shows up exactly once.
func TestRunCellStats(t *testing.T) {
	names := []string{"fig5", "abl-policy"}
	opts := Options{Seed: 1, Quick: true}
	reports, stats, err := RunWithCellStats(names, opts, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 0
	for _, n := range names {
		e, _ := Get(n)
		wantCells += len(e.Plan(opts).Cells)
	}
	if len(stats) != wantCells {
		t.Fatalf("got %d cell stats, want %d", len(stats), wantCells)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	for _, s := range stats {
		if s.Experiment != "fig5" && s.Experiment != "abl-policy" {
			t.Fatalf("stat for unknown experiment %q", s.Experiment)
		}
	}
}

// TestStagedPlanExecutes exercises the Then continuation path of the
// executor directly: a two-stage plan whose second stage depends on
// the first stage's results.
func TestStagedPlanExecutes(t *testing.T) {
	RegisterPlan("test-staged", "two-stage test plan", func(o Options) *Plan {
		first := make([]int, 3)
		var second []int
		p := &Plan{Assemble: func() Result {
			t := &Table{Title: "staged", Header: []string{"v"}}
			for _, v := range second {
				t.AddRow(fmt.Sprintf("%d", v))
			}
			return t
		}}
		for i := range first {
			i := i
			p.Stage.Cell(fmt.Sprintf("first%d", i), func(*World) { first[i] = i + 1 })
		}
		p.Stage.Then = func() *Stage {
			sum := first[0] + first[1] + first[2]
			st := &Stage{}
			second = make([]int, 2)
			for i := range second {
				i := i
				st.Cell(fmt.Sprintf("second%d", i), func(*World) { second[i] = sum * (i + 1) })
			}
			return st
		}
		return p
	})
	defer delete(registry, "test-staged")
	for _, workers := range []int{1, 4} {
		reports, err := Run([]string{"test-staged"}, Options{}, 1, workers)
		if err != nil {
			t.Fatal(err)
		}
		tab := reports[0].Table
		if len(tab.Rows) != 2 || tab.Rows[0][0] != "6" || tab.Rows[1][0] != "12" {
			t.Fatalf("staged plan at %d workers produced %v", workers, tab.Rows)
		}
	}
}
