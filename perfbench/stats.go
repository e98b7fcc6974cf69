package main

import (
	"time"

	"nimble"
)

// verCounters are one deployed version's cumulative serving counters.
type verCounters struct {
	poolWait   time.Duration
	batched    int64 // requests dispatched by the micro-batcher
	dispatches int64 // micro-batcher dispatches
	shed       int64 // gate and scheduler refusals
}

func (c verCounters) sub(o verCounters) verCounters {
	return verCounters{c.poolWait - o.poolWait, c.batched - o.batched, c.dispatches - o.dispatches, c.shed - o.shed}
}

func (c verCounters) plus(o verCounters) verCounters {
	return verCounters{c.poolWait + o.poolWait, c.batched + o.batched, c.dispatches + o.dispatches, c.shed + o.shed}
}

// serveSnap is one reading of the serving stack: cumulative counters per
// model version (a hot-swap starts a version at zero), instantaneous EWMAs,
// and the registry's shared storage tier.
type serveSnap struct {
	vers map[string]verCounters
	// occupancy is the scheduler's streams-per-step EWMA (0 without
	// streams); stepUS the per-step service-time EWMA: the scheduler's for
	// streams, the admission gate's for invokes.
	occupancy, stepUS        float64
	sharedHits, sharedMisses int64
}

// ewmas collects the per-entry EWMAs of one reading.
type ewmas struct{ steps, services, occ []float64 }

// addVersion reads one version's ServiceStats into s under key.
func (s *serveSnap) addVersion(key string, st nimble.ServiceStats, e *ewmas) {
	c := verCounters{poolWait: st.Pool.WaitTime}
	for _, b := range st.Batchers {
		c.batched += b.Coalesced + b.Singles
		c.dispatches += b.Batches + b.Singles
	}
	for _, g := range st.Gates {
		c.shed += g.ShedQueue + g.ShedDeadline + g.ShedBreaker
		if g.Admitted > 0 {
			e.services = append(e.services, g.ServiceEWMAUS)
		}
	}
	for _, sc := range st.Schedulers {
		c.shed += sc.ShedDeadline
		if sc.Steps > 0 {
			e.steps = append(e.steps, sc.StepEWMAUS)
			e.occ = append(e.occ, sc.OccupancyEWMA)
		}
	}
	s.vers[key] = c
}

// finish folds the per-entry EWMAs into the snapshot.
func (s *serveSnap) finish(e ewmas) {
	switch {
	case len(e.steps) > 0:
		s.stepUS = mean(e.steps)
		s.occupancy = mean(e.occ)
	case len(e.services) > 0:
		s.stepUS = mean(e.services)
	}
}

func registrySnap(reg *nimble.Registry) serveSnap {
	s := serveSnap{vers: map[string]verCounters{}}
	var e ewmas
	for _, ms := range reg.Models() {
		for _, vs := range ms.Versions {
			s.addVersion(ms.Name+"@"+vs.Version, vs.Stats, &e)
		}
	}
	s.finish(e)
	if sh, ok := reg.SharedStorageStats(); ok {
		s.sharedHits, s.sharedMisses = sh.Hits, sh.Misses
	}
	return s
}

// snapAcc accumulates readings over a phase. A version first seen after
// the phase began started from zero; a version that disappeared (drained
// after a hot-swap) keeps its last reading.
type snapAcc struct {
	base, last  map[string]verCounters
	first, prev serveSnap
	occ, step   []float64
}

func (a *snapAcc) add(s serveSnap) {
	if a.base == nil {
		a.base = s.vers
		a.last = map[string]verCounters{}
		a.first = s
	}
	for k, v := range s.vers {
		a.last[k] = v
	}
	a.prev = s
	if s.stepUS > 0 {
		a.step = append(a.step, s.stepUS)
	}
	if s.occupancy > 0 {
		a.occ = append(a.occ, s.occupancy)
	}
}

// delta is the counters accumulated since the first reading.
func (a *snapAcc) delta() verCounters {
	var d verCounters
	for k, v := range a.last {
		d = d.plus(v.sub(a.base[k]))
	}
	return d
}

func (a *snapAcc) sharedHitRatio() float64 {
	h := a.prev.sharedHits - a.first.sharedHits
	m := a.prev.sharedMisses - a.first.sharedMisses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
