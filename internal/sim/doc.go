// Package sim provides the virtual clock and deterministic discrete-event
// scheduler that drive every experiment in this repository.
//
// All simulated latencies — page migrations, VM exits, function
// executions, keep-alive timers — are expressed in virtual nanoseconds
// and ordered through a single Scheduler. Events that share a timestamp
// fire in insertion order, so a run is a pure function of its inputs and
// seed: two runs with identical inputs produce identical outputs.
//
// The scheduler is built for the dense timer traffic a fleet simulation
// generates (per-request completions, keep-alives, retry timers):
// event records live in a recycled arena instead of being heap-allocated
// per event, pending events wait in one binary heap keyed inline by
// (timestamp, insertion sequence), and cancelled events are dropped
// lazily when they reach the front of the queue. None of this changes
// observable ordering: events fire strictly by (timestamp, insertion
// sequence).
package sim
