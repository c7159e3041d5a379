package vmm

import "squeezy/internal/sim"

// FaultHooks degrades a reclaim device for fault-injection windows: a
// non-zero ReclaimStall delays every command completion (the command
// occupies the device queue the whole time), and a ReclaimFraction
// below 1 caps how much of a request is attempted.
type FaultHooks interface {
	ReclaimStall() sim.Duration
	ReclaimFraction() float64
}

// Device is the command queue of one paravirtual reclaim device. The
// device processes one plug/unplug/inflate command at a time: a command
// submitted while another is in flight waits, in FIFO order, until the
// in-flight one calls Finish. Squeezy, virtio-mem and the balloon
// driver embed it.
type Device struct {
	// Faults, when non-nil, injects stalled and partial commands.
	Faults FaultHooks

	busy    bool
	pending []func()
}

// Enqueue runs fn now if the device is idle, else after the commands
// ahead of it complete.
func (d *Device) Enqueue(fn func()) {
	if d.busy {
		d.pending = append(d.pending, fn)
		return
	}
	d.busy = true
	fn()
}

// Finish ends the in-flight command and starts the next queued one, if
// any.
func (d *Device) Finish() {
	if len(d.pending) > 0 {
		next := d.pending[0]
		d.pending = d.pending[1:]
		next()
		return
	}
	d.busy = false
}

// Deliver completes a command, imposing the injected stall first; the
// stall happens inside the device's busy window, so queued commands
// wait behind it and the runtime's ReclaimDrainTimeout can fire.
func (d *Device) Deliver(sched *sim.Scheduler, fn func()) {
	if d.Faults != nil {
		if stall := d.Faults.ReclaimStall(); stall > 0 {
			sched.After(stall, fn)
			return
		}
	}
	fn()
}

// Trim returns how much of a request for n units the device attempts:
// all of it, or under an injected ReclaimFraction below 1 a partial
// command covering that fraction (possibly none of it).
func (d *Device) Trim(n int64) int64 {
	if d.Faults != nil {
		if f := d.Faults.ReclaimFraction(); f < 1 {
			return int64(float64(n) * f)
		}
	}
	return n
}
