// Package faas models the OpenWhisk-based N:1 serverless runtime the
// paper integrates Squeezy into (§4.2, §6.2), plus the 1:1 microVM
// model it compares against (§6.3).
//
// One FuncVM is an N:1 VM: an in-guest Agent dispatches requests to
// warm (kept-alive) container instances, creates instances on demand
// (scale-up: memory plug + container spawn), and evicts instances whose
// keep-alive window expires (scale-down: container kill + memory
// unplug). A Runtime coordinates several FuncVMs against one host
// memory pool through a Broker; when the host runs out of memory,
// scale-ups queue and idle instances across all VMs are evicted to free
// memory (§6.2.2).
//
// Four memory backends implement the paper's comparison points: a
// statically over-provisioned VM (no elasticity, Figure 1), vanilla
// virtio-mem, Squeezy, and virtio-mem with the HarvestVM optimizations
// (proactive reclamation + slack buffering, [24]).
package faas
