package fed

// Staleness-aware semi-async state (docs/ASYNC.md): the deadline, sim clock,
// busy devices, carried stragglers and fleet membership that Nebula.Round
// consults when cfg.Async is on. The coordinator paces rounds by a sim-time
// deadline instead of waiting for the slowest device:
// updates that complete within the deadline aggregate immediately, stragglers
// carry their work across round boundaries and land later with a
// staleness-decayed weight, and the fleet may gain or lose devices between
// rounds. Everything is driven by the seeded sim clock — a device's
// completion time is its deterministic link+train+fault time from
// device.Profile and the fault pre-draws — never by wall time, so async runs
// replay bitwise and are independent of the worker count exactly like the
// bulk-synchronous path (docs/PARALLEL.md).

import (
	"sort"

	"repro/internal/obs/span"
)

// asyncPending is one straggler's carried work: launched in round launch,
// completing at absolute sim time done, with the worker's finished result
// (sub-model, update, traffic, span) waiting to be committed in the round
// whose deadline first covers done.
type asyncPending struct {
	c      *Client
	launch int
	done   float64
	res    nebulaResult
}

// asyncState is the semi-async coordinator state, persisted across rounds
// and across Adapt calls.
type asyncState struct {
	clock    float64         // absolute sim time at the current round boundary
	deadline float64         // per-round budget D (0 = not yet calibrated)
	busy     map[int]float64 // device ID -> absolute sim time it becomes free
	pending  []*asyncPending // carried work, (launch round, canonical index) order
	prev     []int           // sorted device IDs present last round
	seeded   bool            // baseline fleet captured (first round is never churn)
}

// landing is one completed piece of work committed in the round it lands in:
// the device, its launch round (staleness = landing round − launch), its
// absolute completion time, and the worker's result.
type landing struct {
	c      *Client
	launch int
	done   float64
	res    *nebulaResult
}

// idle returns the devices not still working on carried rounds: a straggler
// cannot be asked for new work. Eligibility is a pure function of the seeded
// clock, so the sampling draw sequence replays exactly.
func (a *asyncState) idle(clients []*Client) []*Client {
	eligible := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if a.busy[c.Dev.ID] > a.clock {
			continue
		}
		eligible = append(eligible, c)
	}
	return eligible
}

// landCarried removes the carried stragglers whose work completes by roundEnd
// from the pending list, frees their devices, and returns them as landings in
// (launch round, canonical index) order.
func (a *asyncState) landCarried(roundEnd float64) []landing {
	var out []landing
	kept := a.pending[:0]
	for _, pw := range a.pending {
		if pw.done <= roundEnd {
			out = append(out, landing{pw.c, pw.launch, pw.done, &pw.res})
			delete(a.busy, pw.c.Dev.ID)
		} else {
			kept = append(kept, pw)
		}
	}
	a.pending = kept
	return out
}

// applyChurn diffs the incoming fleet against last round's membership and
// commits the changes: departed devices free their busy slot and their
// carried work is discarded (the download traffic it already consumed is
// charged, so accounting still balances); joining devices get a freshly
// derived sub-model — a pure download — before their first round. The first
// async round only captures the baseline. All iteration is over slices in
// deterministic order (sorted previous IDs, canonical clients order); maps
// are membership tests only. tid/parent are the round's trace context; each
// membership change records a marker span under the round root.
func (s *Nebula) applyChurn(round int, clients []*Client, tid span.TraceID, parent span.SpanID) {
	a := s.async
	cur := make(map[int]bool, len(clients))
	for _, c := range clients {
		cur[c.Dev.ID] = true
	}
	if !a.seeded {
		a.seeded = true
		a.prev = presentIDs(clients)
		return
	}
	m := s.metrics()
	left := map[int]bool{}
	for _, id := range a.prev {
		if cur[id] {
			continue
		}
		left[id] = true
		delete(a.busy, id)
		s.Trace.Churn(round, id, "leave", 0)
		m.churnEvents["leave"].Inc()
		ce := s.Spans.Start(tid, parent, "fed.churn")
		ce.SetDevice(id)
		ce.SetRound(round)
		ce.SetNote("leave")
		ce.End()
	}
	if len(left) > 0 {
		kept := a.pending[:0]
		for _, pw := range a.pending {
			id := pw.c.Dev.ID
			if !left[id] {
				kept = append(kept, pw)
				continue
			}
			// The straggler left before its update could land: the work is
			// dropped mid-round without ever blocking aggregation, but the
			// sub-model download it performed did cross the link.
			s.Trace.Flush(&pw.res.span)
			s.Trace.Churn(round, id, "drop_pending", pw.res.down)
			m.churnEvents["drop_pending"].Inc()
			s.costs.BytesDown += pw.res.down
			m.bytesDown.Add(float64(pw.res.down))
			ce := s.Spans.Start(tid, parent, "fed.churn")
			ce.SetDevice(id)
			ce.SetRound(round)
			ce.SetNote("drop_pending")
			ce.End()
		}
		a.pending = kept
	}
	prevSet := make(map[int]bool, len(a.prev))
	for _, id := range a.prev {
		prevSet[id] = true
	}
	for _, c := range clients {
		id := c.Dev.ID
		if prevSet[id] {
			continue
		}
		var down int64
		if s.subs[id] == nil {
			// A brand-new device bootstraps before its first round and gets
			// its sub-model shipped whole (selector included).
			down = s.adopt(id, s.bootstrap(c))
		}
		s.Trace.Churn(round, id, "join", down)
		m.churnEvents["join"].Inc()
		ce := s.Spans.Start(tid, parent, "fed.churn")
		ce.SetDevice(id)
		ce.SetRound(round)
		ce.SetNote("join")
		ce.End()
	}
	a.prev = presentIDs(clients)
}

// presentIDs returns the fleet's device IDs in ascending order.
func presentIDs(clients []*Client) []int {
	ids := make([]int, len(clients))
	for i, c := range clients {
		ids[i] = c.Dev.ID
	}
	sort.Ints(ids)
	return ids
}

// calibrateDeadline turns the calibration round's per-device sim times into
// the per-round deadline: 2× the median, so a typical device finishes with
// slack while tail stragglers carry over. The lower median ((n−1)/2) keeps
// the deadline anchored to the fleet's healthy half even when stragglers
// make up half of a small round. Returns 0 (stay uncalibrated) on an empty
// or degenerate round.
func calibrateDeadline(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	ts := append([]float64(nil), times...)
	sort.Float64s(ts)
	return 2 * ts[(len(ts)-1)/2]
}

// AsyncDeadline exposes the current per-round deadline (0 before
// calibration); experiments report it alongside latency comparisons.
func (s *Nebula) AsyncDeadline() float64 {
	if s.async == nil {
		return 0
	}
	return s.async.deadline
}

// PendingStragglers reports how many carried updates are currently in
// flight (test and experiment introspection).
func (s *Nebula) PendingStragglers() int {
	if s.async == nil {
		return 0
	}
	return len(s.async.pending)
}
