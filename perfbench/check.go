package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strconv"

	"squeezy/internal/cluster"
	"squeezy/internal/experiments"
)

// checkFleet applies the cross-layer conservation laws to a finished
// fleet from the outside: every guest kernel's own invariants hold,
// and on every host the committed pages equal the sum of its VMs'
// committed pages.
func checkFleet(c *cluster.ShardedCluster) error {
	for _, n := range c.Nodes {
		var vmPages int64
		for _, fv := range n.VMs() {
			if err := fv.K.CheckInvariants(); err != nil {
				return fmt.Errorf("host %d vm %s: %w", n.ID, fv.Cfg.Name, err)
			}
			vmPages += fv.VM.CommittedPages()
		}
		if hp := n.Host.CommittedPages(); hp != vmPages {
			return fmt.Errorf("host %d: committed %d pages, its VMs hold %d", n.ID, hp, vmPages)
		}
	}
	return nil
}

// golden is the recorded simulated output of one workload at one seed.
// Rows, for the fleet workloads, are the matching rows of the registry
// experiment's table, which the composed replay must reproduce byte for
// byte.
type golden struct {
	Digest            string     `json:"digest"`
	Rows              [][]string `json:"rows,omitempty"`
	Invocations       int        `json:"invocations,omitempty"`
	SimColdP99Ms      float64    `json:"sim_cold_p99_ms,omitempty"`
	SimReclaimSpeedup float64    `json:"sim_reclaim_speedup,omitempty"`
}

// goldenFile maps workload name, then seed, to its golden output.
type goldenFile map[string]map[string]golden

// goldenPath is where regolden writes, relative to the repository root.
const goldenPath = "perfbench/golden.json"

//go:embed golden.json
var goldenJSON []byte

func loadGoldens() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenPath, err)
	}
	return g, nil
}

func goldenOf(r rep) golden {
	return golden{
		Digest: r.digest, Rows: r.rows, Invocations: r.invocations,
		SimColdP99Ms: r.simColdP99, SimReclaimSpeedup: r.simSpeedup,
	}
}

// verify compares a replay's output with the golden one. It returns an
// error for any difference; ok is false when no golden is recorded for
// the seed, in which case only the conservation checks and replay-to-
// replay determinism apply.
func (g goldenFile) verify(workload string, seed uint64, r rep) (ok bool, err error) {
	want, ok := g[workload][strconv.FormatUint(seed, 10)]
	if !ok {
		return false, r.checkErr
	}
	if r.checkErr != nil {
		return true, r.checkErr
	}
	got := goldenOf(r)
	switch {
	case !slices.EqualFunc(got.Rows, want.Rows, slices.Equal):
		return true, fmt.Errorf("rows differ from the registry's:\n got %v\nwant %v", got.Rows, want.Rows)
	case got.Digest != want.Digest:
		return true, fmt.Errorf("output digest %s, golden %s", got.Digest, want.Digest)
	case got.Invocations != want.Invocations || got.SimColdP99Ms != want.SimColdP99Ms || got.SimReclaimSpeedup != want.SimReclaimSpeedup:
		return true, fmt.Errorf("headline numbers %+v differ from golden %+v", got, want)
	}
	return true, nil
}

// registryRows runs the registry experiment a fleet workload composes
// and returns its matching rows: the virtio-mem column of
// cluster-overcommit, or the Squeezy row of cluster-diurnal at half a
// day under the straggler fault plan.
func registryRows(workload string, seed uint64) ([][]string, error) {
	opts := experiments.Options{Seed: seed}
	var name, backend string
	switch workload {
	case "fleet-overcommit":
		name, backend = "cluster-overcommit", "virtio-mem"
	case "diurnal-squeezy":
		name, backend = "cluster-diurnal", "squeezy"
		opts.Days, opts.FaultScenario = diurnalDays, "straggler"
	default:
		return nil, nil
	}
	reports, _, err := experiments.RunWithCellStats([]string{name}, opts, 1, workers())
	if err != nil {
		return nil, err
	}
	var rows [][]string
	for _, row := range reports[0].Table.Rows {
		if row[0] == backend {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// regolden records the golden output of every workload at its pinned
// and held-out seeds, after checking that each composed fleet replay
// reproduces its registry rows. Re-baselining the goldens is a change
// to the benchmark of its own.
func regolden() error {
	g := goldenFile{}
	for _, w := range workloads {
		g[w.name] = map[string]golden{}
		for _, seed := range []uint64{w.seed, w.heldOut} {
			r := w.run(seed, nil)
			if r.checkErr != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, r.checkErr)
			}
			want, err := registryRows(w.name, seed)
			if err != nil {
				return err
			}
			if want != nil && !slices.EqualFunc(r.rows, want, slices.Equal) {
				return fmt.Errorf("%s seed %d: composed rows %v differ from registry rows %v", w.name, seed, r.rows, want)
			}
			g[w.name][strconv.FormatUint(seed, 10)] = goldenOf(r)
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", w.name, seed, r.digest)
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(b, '\n'), 0o644)
}
