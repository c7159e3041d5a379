package cluster

import (
	"squeezy/internal/costmodel"
	"squeezy/internal/faas"
	"squeezy/internal/obs"
	"squeezy/internal/sim"
	"squeezy/internal/units"
	"squeezy/internal/workload"
)

// Dispatcher resilience: per-attempt timeouts with capped exponential
// backoff and bounded retries, optional hedged dispatch with
// first-wins cancellation, and priority-aware load shedding — all on
// simulated time, all deterministic.
//
// The machinery mirrors the fleet-dynamics split: the serial
// dispatcher owns every decision (launch, timeout, retry, hedge, shed,
// resolution) and acts only at epoch boundaries with the hosts paused;
// hosts own every consequence. An attempt's completion callback fires
// on the serving host's scheduler — possibly while a shard worker
// advances it — so it only moves the attempt to the host's settled
// list; the dispatcher drains those lists at the next boundary in
// host-ID order and resolves each invocation exactly once. The first
// successful attempt wins; losers are withdrawn with
// faas.Ticket.TryCancel, and a loser too far along to cancel runs
// detached, its result ignored. Timed decisions (timeouts, backoff
// expirations, hedge launches) are boundary-queue events (see
// "Boundary queue" in the package comment), so they happen at exact
// simulated times, identical at every shard count.

// ResilienceConfig turns on the dispatcher resilience layer
// (Config.Resilience; nil preserves the plain dispatch path
// bit-for-bit). Zero-valued fields take the costmodel defaults.
type ResilienceConfig struct {
	// Timeout is the per-attempt dispatch deadline: an attempt that has
	// not completed Timeout after launch gets a speculative re-dispatch
	// raced against it (the original keeps running — first success
	// wins). Default costmodel.DispatchTimeout.
	Timeout sim.Duration
	// MaxRetries bounds re-dispatch attempts per invocation after
	// timeouts and failures. 0 means costmodel.DispatchMaxRetries; use
	// -1 to disable retries.
	MaxRetries int
	// BackoffBase and BackoffCap shape the capped exponential backoff
	// before retry k: min(BackoffBase << k, BackoffCap). Defaults
	// costmodel.RetryBackoffBase/RetryBackoffCap.
	BackoffBase sim.Duration
	BackoffCap  sim.Duration
	// Hedge launches a backup attempt on a second host HedgeDelay after
	// the primary if it has not completed — tail-cutting for requests
	// stuck behind a degraded host. First completion wins.
	Hedge bool
	// HedgeDelay defaults to costmodel.HedgeDelay (about the fleet's
	// steady-state cold-start P99, so only tail requests hedge).
	HedgeDelay sim.Duration
	// Shed enables admission-time load shedding under demand overload:
	// an invocation whose priority-dependent threshold
	// (costmodel.ShedBase + priority*costmodel.ShedStep) is below the
	// fleet's unmet-memory pressure — broker-queued pages over total
	// capacity — is dropped immediately, lowest priority first.
	// Requires Config.HostMemBytes > 0.
	Shed bool
}

// withDefaults fills the zero-valued fields from the cost-model
// constants.
func (r ResilienceConfig) withDefaults() ResilienceConfig {
	if r.Timeout <= 0 {
		r.Timeout = costmodel.DispatchTimeout
	}
	switch {
	case r.MaxRetries == 0:
		r.MaxRetries = costmodel.DispatchMaxRetries
	case r.MaxRetries < 0:
		r.MaxRetries = 0
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = costmodel.RetryBackoffBase
	}
	if r.BackoffCap <= 0 {
		r.BackoffCap = costmodel.RetryBackoffCap
	}
	if r.HedgeDelay <= 0 {
		r.HedgeDelay = costmodel.HedgeDelay
	}
	return r
}

// rflight is one invocation under the resilience layer: the resilient
// analogue of flight, tracking every attempt launched on its behalf.
// It resolves exactly once — on the first successful attempt, or on
// the final failure once the retry budget and all racers are spent.
type rflight struct {
	fn      *workload.Function
	arrival sim.Time
	onDone  func(faas.Result)

	attempts int  // attempts launched so far (primary, retries, hedge)
	retries  int  // retry budget consumed
	hedged   bool // the one hedge attempt has been launched
	replaced bool // some attempt was re-placed after a host loss
	resolved bool

	// outstanding is the attempts still racing, launch order. Only the
	// serial dispatcher mutates it.
	outstanding []*attempt
}

// attempt is one placement of an rflight on one host. Between launch
// and settlement it is host-owned: the completion callback (running on
// the host's scheduler) sets settled/res and moves it from the node's
// attempts list to its settled list; everything else is dispatcher-
// owned and mutated only at boundaries.
type attempt struct {
	fl     *rflight
	node   *Node
	ticket faas.Ticket
	idx    int // launch index on the flight; 0 is the primary
	hedge  bool

	settled bool // host-written at completion, dispatcher-read at boundaries
	res     faas.Result

	cancelled bool // withdrawn by a timeout or a first-wins cleanup
	dead      bool // its host failed or drained out underneath it
}

// resilEventKind classifies one dispatcher-side timed decision.
type resilEventKind int

const (
	// attemptTimeout fires when an attempt exceeds the dispatch
	// deadline.
	attemptTimeout resilEventKind = iota
	// retryLaunch fires when a retry's backoff expires.
	retryLaunch
	// hedgeLaunch fires HedgeDelay after the primary attempt.
	hedgeLaunch
)

// resilEvent is one scheduled resilience decision.
type resilEvent struct {
	kind resilEventKind
	fl   *rflight
	att  *attempt // attemptTimeout only
}

// queueResil schedules a resilience decision d from now.
func (c *ShardedCluster) queueResil(d sim.Duration, ev resilEvent) {
	c.pushBoundary(boundaryEvent{T: c.now.Add(d), class: classResil, resil: ev})
}

// invokeResilient admits one invocation through the resilience layer:
// shed under memory pressure, else launch the primary attempt and arm
// the hedge timer.
func (c *ShardedCluster) invokeResilient(fn *workload.Function, onDone func(faas.Result)) {
	if c.shouldShed(fn) {
		c.shedInvocation(fn, onDone)
		return
	}
	fl := &rflight{fn: fn, arrival: c.now, onDone: onDone}
	c.launchAttempt(fl)
	if c.resil.Hedge && !fl.resolved {
		c.queueResil(c.resil.HedgeDelay, resilEvent{kind: hedgeLaunch, fl: fl})
	}
}

// shedConfigured reports whether any admission-shedding mode is on:
// the resilience layer's (ResilienceConfig.Shed) or the
// recovery-storm controller's domain-aware variant (RepaceConfig.Shed).
func (c *ShardedCluster) shedConfigured() bool {
	return (c.resil != nil && c.resil.Shed) || (c.repace != nil && c.repace.Shed)
}

// shouldShed decides admission-time shedding on demand overload: the
// fleet's queued-but-unmet memory (broker waiters plus the paced
// re-placement backlog) as a fraction of the active hosts' real
// capacity, against the invocation's priority-dependent threshold.
// Committed pages are the wrong signal here — an elastic fleet sits
// full of reclaimable keep-alive pools by design, so committed stays
// near capacity even when idle; the broker queues, by contrast, are
// near zero on a healthy fleet and explode exactly when demand
// outruns what reclaim can free. The capacity term shrinks the moment
// a domain dies and the backlog term rises the same instant, so a
// correlated failure tightens admission immediately. Low-priority work
// sheds first; the highest class holds on until the unmet backlog
// itself covers the whole surviving fleet's memory.
func (c *ShardedCluster) shouldShed(fn *workload.Function) bool {
	if !c.shedConfigured() || len(c.active) == 0 {
		return false
	}
	capacity := c.activeCapacityPages()
	if capacity <= 0 {
		return false
	}
	queued := c.repaceBacklogPages()
	for _, n := range c.active {
		queued += n.QueuedPages()
	}
	pressure := float64(queued) / float64(capacity)
	return pressure > costmodel.ShedBase+float64(fn.Priority)*costmodel.ShedStep
}

// shedInvocation drops one invocation at admission, accounting it on
// the dispatcher-side counters. Shared by the resilient and plain
// dispatch paths.
func (c *ShardedCluster) shedInvocation(fn *workload.Function, onDone func(faas.Result)) {
	c.Metrics.Shed++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/shed", 1)
		c.fleetObs.Instant("shed: "+fn.Name, obs.CatFault,
			obs.I("priority", int64(fn.Priority)))
	}
	if onDone != nil {
		onDone(faas.Result{Fn: fn, Arrival: c.now, Done: c.now, Dropped: true})
	}
}

// exclOf returns the host-exclusion predicate for the flight's next
// attempt — the hosts already racing an attempt of it — or nil when
// nothing is outstanding (no allocation on the common path).
func exclOf(fl *rflight) func(*Node) bool {
	if len(fl.outstanding) == 0 {
		return nil
	}
	return func(n *Node) bool {
		for _, att := range fl.outstanding {
			if att.node == n {
				return true
			}
		}
		return false
	}
}

// launchAttempt places the flight's next attempt through the normal
// dispatcher tiers, preferring hosts not already racing one. If even
// the unexcluded fleet cannot admit it, the attempt fails
// synchronously and the retry machinery takes over.
func (c *ShardedCluster) launchAttempt(fl *rflight) {
	tier, n, fv := c.chooseVM(fl.fn, exclOf(fl))
	if fv == nil && len(fl.outstanding) > 0 {
		// Better a second attempt on a racing host than none at all.
		tier, n, fv = c.chooseVM(fl.fn, nil)
	}
	if fv == nil {
		// A transient placement failure, not yet an admission drop: the
		// retry machinery may still land the flight later. Only a
		// terminal failure with no admitted attempt counts (finalFail).
		if c.fleetObs != nil {
			c.fleetObs.Instant("admission-defer: "+fl.fn.Name, obs.CatInvoke)
		}
		c.attemptFailed(fl, nil,
			faas.Result{Fn: fl.fn, Arrival: fl.arrival, Done: c.now, Dropped: true})
		return
	}
	c.startAttempt(fl, tier, n, fv, false)
}

// hedgeAttempt launches the flight's one backup attempt on a host not
// already racing it — but only when that host can serve it without
// queueing: an idle warm instance (which already owns its memory), or
// an in-place scale-up whose host has enough free-and-unclaimed memory
// to admit the new instance outright. Anything less makes the hedge a
// load amplifier — a queued hedge adds to exactly the congestion it is
// meant to dodge, and a memory-starved spawn feeds demand into a
// reclaim path that may itself be the thing limping. Under a localized
// fault (one straggling host) the rest of the fleet has headroom and
// hedges flow; under fleet-wide degradation every broker has a queue
// and this gate suppresses hedging entirely. The hedge spends no retry
// budget.
func (c *ShardedCluster) hedgeAttempt(fl *rflight) {
	if fl.hedged || len(fl.outstanding) == 0 {
		return
	}
	tier, n, fv := c.chooseVM(fl.fn, exclOf(fl))
	if fv == nil {
		return
	}
	switch tier {
	case "warm":
	case "scale-up", "place":
		if n.Host.CapacityPages() > 0 && n.HeadroomPages() < units.BytesToPages(fl.fn.MemoryLimit) {
			return
		}
	default:
		return // fallback tier = queue behind someone: never hedge into that
	}
	fl.hedged = true
	c.Metrics.Hedges++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/hedges", 1)
		c.fleetObs.Instant("hedge: "+fl.fn.Name, obs.CatFault,
			obs.I("host", int64(n.ID)))
	}
	c.startAttempt(fl, tier, n, fv, true)
}

// startAttempt submits one attempt to the chosen VM and arms its
// timeout. The completion callback is the only piece of this machinery
// that runs host-side, and it only moves the attempt onto the host's
// settled list — resolution waits for the next boundary.
func (c *ShardedCluster) startAttempt(fl *rflight, tier string, n *Node, fv *faas.FuncVM, hedge bool) {
	att := &attempt{fl: fl, node: n, idx: fl.attempts, hedge: hedge}
	fl.attempts++
	fl.outstanding = append(fl.outstanding, att)
	n.attempts = append(n.attempts, att)
	att.ticket = fv.Submit(fl.fn, func(res faas.Result) {
		att.settled, att.res = true, res
		n.removeAttempt(att)
		n.settled = append(n.settled, att)
	})
	c.queueResil(c.resil.Timeout, resilEvent{kind: attemptTimeout, fl: fl, att: att})
	if c.fleetObs != nil {
		c.fleetObs.Count("dispatch/"+tier, 1)
		c.fleetObs.Instant("dispatch/"+tier+": "+fl.fn.Name, obs.CatInvoke,
			obs.I("host", int64(n.ID)), obs.I("attempt", int64(att.idx)))
	}
}

// timeoutAttempt handles an attempt exceeding the dispatch deadline.
// The slow attempt is NOT withdrawn — in a merely-backlogged fleet its
// queue position is the fastest path to completion, and cancelling it
// would convert ordinary congestion into failures. Instead a
// speculative re-dispatch races it from another host: whichever
// completes successfully first wins, and resolveFlight withdraws the
// losers. A stuck attempt (reclaim stall, straggler host) thus gets
// escaped without betting against a healthy queue.
func (c *ShardedCluster) timeoutAttempt(fl *rflight, att *attempt) {
	if att.settled || att.cancelled || att.dead {
		return // settled results resolve via resolveSettled, not here
	}
	if c.horizon || fl.retries >= c.resil.MaxRetries {
		return // budget spent: the racers ride to the horizon
	}
	c.Metrics.TimedOut++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/timeouts", 1)
		c.fleetObs.Instant("timeout: "+fl.fn.Name, obs.CatFault,
			obs.I("host", int64(att.node.ID)), obs.I("attempt", int64(att.idx)))
	}
	c.scheduleRetry(fl)
}

// attemptFailed handles a settled failure (boot failure, crash, OOM
// drop, or a placement the fleet could not admit; n is nil for the
// latter). With another attempt still racing the flight just waits;
// otherwise a retry is scheduled, or the failure becomes final.
func (c *ShardedCluster) attemptFailed(fl *rflight, n *Node, res faas.Result) {
	if len(fl.outstanding) > 0 {
		return
	}
	if !c.horizon && fl.retries < c.resil.MaxRetries {
		c.scheduleRetry(fl)
		return
	}
	c.finalFail(fl, n, res)
}

// scheduleRetry arms the flight's next attempt after capped
// exponential backoff.
func (c *ShardedCluster) scheduleRetry(fl *rflight) {
	backoff := c.resil.BackoffBase << fl.retries
	if backoff <= 0 || backoff > c.resil.BackoffCap {
		backoff = c.resil.BackoffCap
	}
	fl.retries++
	c.Metrics.Retries++
	if c.fleetObs != nil {
		c.fleetObs.Count("resil/retries", 1)
		c.fleetObs.Instant("retry: "+fl.fn.Name, obs.CatFault,
			obs.I("retry", int64(fl.retries)), obs.I("backoff_ms", int64(backoff.Milliseconds())))
	}
	c.queueResil(backoff, resilEvent{kind: retryLaunch, fl: fl})
}

// finalFail resolves the flight with its terminal failure. The result
// is accounted on the host that produced it (n may be nil when the
// fleet never admitted any attempt — then only the dispatcher-side
// admission counters have seen the flight, mirroring the plain path's
// admission drops).
func (c *ShardedCluster) finalFail(fl *rflight, n *Node, res faas.Result) {
	fl.resolved = true
	if n != nil {
		n.account(fl.fn, fl.arrival, fl.replaced, res)
	} else {
		// Never admitted anywhere: the terminal admission drop, counted
		// dispatcher-side exactly like the plain path's.
		c.Metrics.AdmissionDrops++
		if c.fleetObs != nil {
			c.fleetObs.Count("admission_drops", 1)
			c.fleetObs.Instant("admission-drop: "+fl.fn.Name, obs.CatInvoke)
		}
	}
	if fl.onDone != nil {
		fl.onDone(res)
	}
}

// resolveSettled drains every host's settled attempts in host-ID
// order and resolves their flights: the first successful completion in
// canonical order wins, failures feed the retry machinery, and
// results of already-resolved flights are dropped (a hedge loser that
// could not be cancelled). Runs serially at every boundary, before the
// resilience decisions (fireBoundary), so completions beat
// same-instant timeouts.
func (c *ShardedCluster) resolveSettled() {
	if c.resil == nil {
		return
	}
	for _, n := range c.Nodes {
		if len(n.settled) == 0 {
			continue
		}
		for _, att := range n.settled {
			c.settleAttempt(att)
		}
		clear(n.settled)
		n.settled = n.settled[:0]
	}
}

// settleAttempt resolves one completed attempt against its flight.
func (c *ShardedCluster) settleAttempt(att *attempt) {
	fl := att.fl
	fl.removeOutstanding(att)
	if fl.resolved {
		return // a racer already won; this result is ignored
	}
	if !att.res.Failed && !att.res.Dropped {
		c.resolveFlight(fl, att)
		return
	}
	c.attemptFailed(fl, att.node, att.res)
}

// resolveFlight crowns the winning attempt: deliver its result on its
// host's metrics, and withdraw every loser still racing. A loser too
// far along to cancel runs detached; its eventual result is ignored.
func (c *ShardedCluster) resolveFlight(fl *rflight, att *attempt) {
	fl.resolved = true
	if att.hedge {
		c.Metrics.HedgeWins++
		if c.fleetObs != nil {
			c.fleetObs.Count("resil/hedge_wins", 1)
			c.fleetObs.Instant("hedge-win: "+fl.fn.Name, obs.CatFault,
				obs.I("host", int64(att.node.ID)))
		}
	}
	for _, other := range fl.outstanding {
		if other == att || other.settled || other.cancelled || other.dead {
			continue
		}
		if other.ticket.TryCancel() {
			other.cancelled = true
			other.node.removeAttempt(other)
		}
	}
	fl.outstanding = fl.outstanding[:0]
	att.node.account(fl.fn, fl.arrival, fl.replaced, att.res)
	if fl.onDone != nil {
		fl.onDone(att.res)
	}
}

// replaceAttempts re-places a retired host's racing attempts, exactly
// once each (displace, repace.go) — the resilient mirror of
// replaceFlights. Settled-but-unresolved attempts keep their results;
// they resolve at the next boundary from the dead host's settled list.
func (c *ShardedCluster) replaceAttempts(n *Node) {
	atts := n.attempts
	n.attempts = nil
	for _, att := range atts {
		att.dead = true
		att.fl.removeOutstanding(att)
		if att.fl.resolved {
			continue
		}
		att.fl.replaced = true
		c.displace(repaceEntry{fn: att.fl.fn, rfl: att.fl, from: n.ID})
	}
}

// finishResil closes out the resilience layer after the final drain:
// completions from the drain period resolve, and failures that would
// have retried become final — there are no boundaries left to retry
// at. Flights whose attempts never completed by the horizon stay
// unresolved, exactly as the plain path leaves queued work unserved.
func (c *ShardedCluster) finishResil() {
	if c.resil == nil {
		return
	}
	c.horizon = true
	c.resolveSettled()
}

// removeAttempt retires the attempt from the host's racing list,
// preserving order. Called by the completion callback (host-side) or
// by the dispatcher after a successful cancel — never both: a
// cancelled request's completion never fires.
func (n *Node) removeAttempt(att *attempt) {
	for i, a := range n.attempts {
		if a == att {
			n.attempts = append(n.attempts[:i], n.attempts[i+1:]...)
			return
		}
	}
}

// removeOutstanding drops the attempt from the flight's racing list,
// preserving launch order.
func (fl *rflight) removeOutstanding(att *attempt) {
	for i, a := range fl.outstanding {
		if a == att {
			fl.outstanding = append(fl.outstanding[:i], fl.outstanding[i+1:]...)
			return
		}
	}
}
