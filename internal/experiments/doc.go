// Package experiments contains one driver per table and figure of the
// paper's evaluation (§6), plus ablations and the fleet-scale
// cluster-* sweeps. Each driver builds the full stack — host, VMM,
// guest kernel, reclamation interface, FaaS runtime, workload — runs
// the paper's protocol in virtual time, and returns the rows or series
// the paper plots. Every driver is a pure function of its seed.
//
// # Structure
//
// Drivers self-register into a package-level registry (registry.go)
// from init(), so the CLI, benchmarks, and determinism tests all
// enumerate one source of truth. A driver exposes its work as a cell
// plan (plan.go): independent simulation cells plus an Assemble step,
// optionally chained into data-dependent stages. The unified executor
// (runner.go) flattens experiments × trials × stages onto one worker
// pool; each worker owns a World (world.go) that gives every cell a
// fresh scheduler and carries no simulator state from cell to cell.
//
// The fleet-scale cluster-* sweeps are declared as data: a list of
// fleetCells (config plus lead columns) and a list of column names,
// turned into a plan by the one fleetPlan (cluster.go).
//
// Cells may decompose further at run time: a sharded fleet cell fans
// per-host shard advances through World.Exec onto the same worker
// pool, where idle workers — and workers blocked in their own Exec —
// steal them. The parallel wall-clock floor of a full run is therefore
// the slowest host-shard, not the slowest cell.
//
// # Determinism
//
// Workers write only pre-assigned result slots, per-trial and per-cell
// seeds derive through SubSeed (splitmix64), every cell builds its
// simulator state fresh, shard tasks are order-independent, and
// reports carry no timing fields — so output is byte-identical across
// worker counts, shard counts, and serial/parallel execution, which
// the determinism tests assert for every registered experiment.
//
// EXPERIMENTS.md records paper-reported vs measured values for each
// driver.
package experiments
