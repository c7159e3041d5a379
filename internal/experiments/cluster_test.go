package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// clusterNames returns every registered cluster-* experiment; the fleet
// layer must never lose one silently.
func clusterNames(t *testing.T) []string {
	t.Helper()
	var names []string
	for _, n := range Names() {
		if strings.HasPrefix(n, "cluster-") {
			names = append(names, n)
		}
	}
	if len(names) < 3 {
		t.Fatalf("only %d cluster experiments registered: %v", len(names), names)
	}
	return names
}

// TestClusterParallelMatchesSerial is the acceptance gate for the fleet
// experiments: running every cluster-* driver through the worker pool
// must be byte-identical to a serial run.
func TestClusterParallelMatchesSerial(t *testing.T) {
	names := clusterNames(t)
	opts := Options{Seed: 5, Quick: true}
	serial, err := Run(names, opts, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(names, opts, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	encode := func(reports []Report) []byte {
		var buf bytes.Buffer
		if err := EncodeJSON(&buf, reports); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(serial), encode(par)) {
		t.Fatal("parallel cluster run differs from serial run")
	}
}

// TestClusterPoliciesTableShape checks the acceptance criterion that
// cluster-policies emits a policy x backend x host-count table: every
// combination appears exactly once.
func TestClusterPoliciesTableShape(t *testing.T) {
	tab := ClusterPoliciesPlan(Options{Seed: 2, Quick: true}).runSerial(newWorld()).Table()
	if got := len(tab.Header); got < 10 {
		t.Fatalf("header has %d columns: %v", got, tab.Header)
	}
	seen := map[string]bool{}
	policies := map[string]bool{}
	backends := map[string]bool{}
	hosts := map[string]bool{}
	for _, row := range tab.Rows {
		key := row[0] + "/" + row[1] + "/" + row[2]
		if seen[key] {
			t.Fatalf("duplicate combination %s", key)
		}
		seen[key] = true
		policies[row[0]] = true
		backends[row[1]] = true
		hosts[row[2]] = true
	}
	if len(policies) < 4 || len(backends) < 2 || len(hosts) < 2 {
		t.Fatalf("sweep incomplete: %d policies, %d backends, %d host counts",
			len(policies), len(backends), len(hosts))
	}
	if len(tab.Rows) != len(policies)*len(backends)*len(hosts) {
		t.Fatalf("rows = %d, want full cross product %d", len(tab.Rows),
			len(policies)*len(backends)*len(hosts))
	}
}

// TestClusterScaleRowsGrow sanity-checks the weak-scaling sweep: hosts
// and invocations should both grow down the table.
func TestClusterScaleRowsGrow(t *testing.T) {
	tab := ClusterScalePlan(Options{Seed: 2, Quick: true}).runSerial(newWorld()).Table()
	if len(tab.Rows) < 2 {
		t.Fatalf("want >= 2 scale points, got %d", len(tab.Rows))
	}
	prev := ""
	for _, row := range tab.Rows {
		if row[0] <= prev {
			t.Fatalf("host counts not increasing: %v", tab.Rows)
		}
		prev = row[0]
	}
}

// TestClusterOverlaysGolden pins the squeezyctl option overlays
// (-faults, -topology, -sketch) on every cluster-* experiment: the
// quick protocol at seed 3 under each option set must hash to
// testdata/quick_overlays.sha256 (amd64 reference; regenerate with
// -update only after an intentional change to the tables).
func TestClusterOverlaysGolden(t *testing.T) {
	names := clusterNames(t)
	overlays := []Options{
		{FaultScenario: "fuzz"},
		{FaultScenario: "fuzz", TopoRacks: 4, TopoZones: 2},
		{Sketch: true},
	}
	var buf bytes.Buffer
	for _, opts := range overlays {
		opts.Seed, opts.Quick = 3, true
		reports, err := Run(names, opts, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := EncodeJSON(&buf, reports); err != nil {
			t.Fatal(err)
		}
	}
	checkGoldenHash(t, "quick_overlays.sha256", buf.Bytes())
}
