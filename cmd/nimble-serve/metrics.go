package main

import (
	"fmt"
	"net/http"
	"strings"
	"time"
)

// handleMetrics renders every live model-version's counters in the
// Prometheus text exposition format, hand-rolled so the binary stays
// dependency-free. The catalog (documented in docs/operations.md):
//
//   - nimble_pool_*       session pool, labeled {model, version}: size,
//     checkouts, quarantines
//   - nimble_gate_*       per-entry admission gate, labeled {model,
//     version, entry}
//   - nimble_sched_*      per-entry continuous-batching scheduler, labeled
//     {model, version, entry}: queue depth, batch occupancy, step latency
//     quantiles
//   - nimble_batch_*      per-entry request merging on row-separable
//     entries, labeled {model, version, entry}
//   - nimble_version_*    routing: canary traffic percent and requests in
//     flight per live version
//   - nimble_shared_storage_*  the cross-model storage tier
//   - nimble_entry_healthy / nimble_up  breaker-driven health
//
// Durations are exported in seconds (Prometheus base units) even though
// /stats reports microseconds.
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	models := s.reg.Models()

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	counter := func(name, help string, v float64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n%s %g\n", name, help, name, name, v)
	}
	// Labeled series share one HELP/TYPE header per family, then one sample
	// per (model, version[, entry]); family collects rows and flushes them
	// under the header.
	family := func(name, typ, help string, rows []string) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, r := range rows {
			b.WriteString(r)
		}
	}

	up := 1.0
	for _, ms := range models {
		for _, vs := range ms.Versions {
			if vs.Health.Degraded {
				up = 0
			}
		}
	}
	gauge("nimble_up", "1 when no live version has an open circuit breaker.", up)
	gauge("nimble_uptime_seconds", "Seconds since the server started.", time.Since(s.start).Seconds())
	gauge("nimble_models", "Models deployed in the registry.", float64(len(models)))

	// rows[familyName] accumulates labeled samples across every model
	// version; families are emitted once, after the sweep.
	rows := map[string][]string{}
	add := func(familyName, labels string, v float64) {
		rows[familyName] = append(rows[familyName], fmt.Sprintf("%s{%s} %g\n", familyName, labels, v))
	}

	for _, ms := range models {
		for _, vs := range ms.Versions {
			mv := fmt.Sprintf("model=%q,version=%q", ms.Name, vs.Version)
			entryOf := func(entry string) string { return mv + fmt.Sprintf(",entry=%q", entry) }

			canary := 0.0
			if vs.State == "canary" {
				canary = 1
			}
			add("nimble_version_canary", mv, canary)
			add("nimble_version_traffic_percent", mv, float64(vs.Percent))
			add("nimble_version_requests_in_flight", mv, float64(vs.InFlight))

			p := vs.Stats.Pool
			add("nimble_pool_workers", mv, float64(p.Workers))
			add("nimble_pool_invocations_total", mv, float64(p.Invocations))
			add("nimble_pool_errors_total", mv, float64(p.Errors))
			add("nimble_pool_in_flight", mv, float64(p.InFlight))
			add("nimble_pool_peak_in_use", mv, float64(p.PeakInUse))
			add("nimble_pool_waits_total", mv, float64(p.Waits))
			add("nimble_pool_wait_seconds_total", mv, p.WaitTime.Seconds())
			add("nimble_pool_quarantined_total", mv, float64(p.Quarantined))

			for _, g := range vs.Stats.Gates {
				l := entryOf(g.Entry)
				add("nimble_gate_admitted_total", l, float64(g.Admitted))
				add("nimble_gate_queued", l, float64(g.Queued))
				add("nimble_gate_expected_wait_seconds", l, g.ExpectedWaitUS/1e6)
				add("nimble_gate_service_ewma_seconds", l, g.ServiceEWMAUS/1e6)
				add("nimble_gate_service_p50_seconds", l, g.P50US/1e6)
				add("nimble_gate_service_p99_seconds", l, g.P99US/1e6)
				add("nimble_gate_shed_queue_total", l, float64(g.ShedQueue))
				add("nimble_gate_shed_deadline_total", l, float64(g.ShedDeadline))
				add("nimble_gate_shed_breaker_total", l, float64(g.ShedBreaker))
				openV := 0.0
				if g.BreakerOpen {
					openV = 1
				}
				add("nimble_gate_breaker_open", l, openV)
				add("nimble_gate_breaker_trips_total", l, float64(g.BreakerTrips))
			}

			for _, sc := range vs.Stats.Schedulers {
				l := entryOf(sc.Entry)
				add("nimble_sched_submitted_total", l, float64(sc.Submitted))
				add("nimble_sched_completed_total", l, float64(sc.Completed))
				add("nimble_sched_canceled_total", l, float64(sc.Canceled))
				add("nimble_sched_failed_total", l, float64(sc.Failed))
				add("nimble_sched_shed_deadline_total", l, float64(sc.ShedDeadline))
				add("nimble_sched_queued", l, float64(sc.Queued))
				add("nimble_sched_active", l, float64(sc.Active))
				add("nimble_sched_sessions", l, float64(sc.Sessions))
				add("nimble_sched_peak_occupancy", l, float64(sc.PeakOccupancy))
				add("nimble_sched_occupancy_ewma", l, sc.OccupancyEWMA)
				add("nimble_sched_steps_total", l, float64(sc.Steps))
				add("nimble_sched_steps_per_stream", l, sc.StepsPerStream)
				add("nimble_sched_step_ewma_seconds", l, sc.StepEWMAUS/1e6)
				add("nimble_sched_step_p50_seconds", l, sc.StepP50US/1e6)
				add("nimble_sched_step_p99_seconds", l, sc.StepP99US/1e6)
				add("nimble_sched_projected_wait_seconds", l, sc.ProjectedWaitUS/1e6)
			}

			for _, bt := range vs.Stats.Batchers {
				l := entryOf(bt.Entry)
				add("nimble_batch_batches_total", l, float64(bt.Batches))
				add("nimble_batch_singles_total", l, float64(bt.Singles))
				add("nimble_batch_coalesced_total", l, float64(bt.Coalesced))
				add("nimble_batch_fallback_total", l, float64(bt.Fallbacks))
				add("nimble_batch_largest_batch", l, float64(bt.LargestBatch))
			}

			for _, e := range vs.Health.Entries {
				v := 0.0
				if e.Healthy {
					v = 1
				}
				add("nimble_entry_healthy", entryOf(e.Entry), v)
			}
		}
	}

	family("nimble_version_canary", "gauge", "1 while this version is the canary of a rollout.", rows["nimble_version_canary"])
	family("nimble_version_traffic_percent", "gauge", "Configured unpinned-traffic share (canary only).", rows["nimble_version_traffic_percent"])
	family("nimble_version_requests_in_flight", "gauge", "Requests and open streams holding this version.", rows["nimble_version_requests_in_flight"])

	family("nimble_pool_workers", "gauge", "Sessions in the pool.", rows["nimble_pool_workers"])
	family("nimble_pool_invocations_total", "counter", "Entry invocations executed.", rows["nimble_pool_invocations_total"])
	family("nimble_pool_errors_total", "counter", "Invocations that returned an error.", rows["nimble_pool_errors_total"])
	family("nimble_pool_in_flight", "gauge", "Sessions checked out right now.", rows["nimble_pool_in_flight"])
	family("nimble_pool_peak_in_use", "gauge", "Most sessions ever in use at once.", rows["nimble_pool_peak_in_use"])
	family("nimble_pool_waits_total", "counter", "Acquisitions that had to queue for a session.", rows["nimble_pool_waits_total"])
	family("nimble_pool_wait_seconds_total", "counter", "Total time spent queued for sessions.", rows["nimble_pool_wait_seconds_total"])
	family("nimble_pool_quarantined_total", "counter", "Poisoned sessions replaced by fresh VMs.", rows["nimble_pool_quarantined_total"])

	family("nimble_gate_admitted_total", "counter", "Requests admitted past the gate.", rows["nimble_gate_admitted_total"])
	family("nimble_gate_queued", "gauge", "Admitted requests not yet running.", rows["nimble_gate_queued"])
	family("nimble_gate_expected_wait_seconds", "gauge", "Arrival-time wait estimate.", rows["nimble_gate_expected_wait_seconds"])
	family("nimble_gate_service_ewma_seconds", "gauge", "Smoothed service time.", rows["nimble_gate_service_ewma_seconds"])
	family("nimble_gate_service_p50_seconds", "gauge", "Service-time median (log2-bucket histogram).", rows["nimble_gate_service_p50_seconds"])
	family("nimble_gate_service_p99_seconds", "gauge", "Service-time 99th percentile (log2-bucket histogram).", rows["nimble_gate_service_p99_seconds"])
	family("nimble_gate_shed_queue_total", "counter", "Arrivals shed because the queue was full.", rows["nimble_gate_shed_queue_total"])
	family("nimble_gate_shed_deadline_total", "counter", "Arrivals shed because their deadline was unmeetable.", rows["nimble_gate_shed_deadline_total"])
	family("nimble_gate_shed_breaker_total", "counter", "Arrivals shed by an open circuit breaker.", rows["nimble_gate_shed_breaker_total"])
	family("nimble_gate_breaker_open", "gauge", "1 while the entry's breaker is open.", rows["nimble_gate_breaker_open"])
	family("nimble_gate_breaker_trips_total", "counter", "Times the breaker opened.", rows["nimble_gate_breaker_trips_total"])

	family("nimble_sched_submitted_total", "counter", "Streams submitted to the run queue.", rows["nimble_sched_submitted_total"])
	family("nimble_sched_completed_total", "counter", "Streams that finished cleanly.", rows["nimble_sched_completed_total"])
	family("nimble_sched_canceled_total", "counter", "Streams canceled by their caller.", rows["nimble_sched_canceled_total"])
	family("nimble_sched_failed_total", "counter", "Streams that failed (faults, poisoning, close).", rows["nimble_sched_failed_total"])
	family("nimble_sched_shed_deadline_total", "counter", "Stream arrivals shed on projected deadline overrun.", rows["nimble_sched_shed_deadline_total"])
	family("nimble_sched_queued", "gauge", "Streams waiting for a session window.", rows["nimble_sched_queued"])
	family("nimble_sched_active", "gauge", "Streams adopted by workers right now.", rows["nimble_sched_active"])
	family("nimble_sched_sessions", "gauge", "Sessions the scheduler drives right now.", rows["nimble_sched_sessions"])
	family("nimble_sched_peak_occupancy", "gauge", "Most streams one session ever interleaved.", rows["nimble_sched_peak_occupancy"])
	family("nimble_sched_occupancy_ewma", "gauge", "Smoothed per-step batch size.", rows["nimble_sched_occupancy_ewma"])
	family("nimble_sched_steps_total", "counter", "Decode iterations executed.", rows["nimble_sched_steps_total"])
	family("nimble_sched_steps_per_stream", "gauge", "Smoothed iterations per completed stream.", rows["nimble_sched_steps_per_stream"])
	family("nimble_sched_step_ewma_seconds", "gauge", "Smoothed per-iteration latency.", rows["nimble_sched_step_ewma_seconds"])
	family("nimble_sched_step_p50_seconds", "gauge", "Per-iteration latency median (log2-bucket histogram).", rows["nimble_sched_step_p50_seconds"])
	family("nimble_sched_step_p99_seconds", "gauge", "Per-iteration latency 99th percentile (log2-bucket histogram).", rows["nimble_sched_step_p99_seconds"])
	family("nimble_sched_projected_wait_seconds", "gauge", "Current arrival-time completion estimate.", rows["nimble_sched_projected_wait_seconds"])

	family("nimble_batch_batches_total", "counter", "Coalesced dispatches executed.", rows["nimble_batch_batches_total"])
	family("nimble_batch_singles_total", "counter", "Requests dispatched alone.", rows["nimble_batch_singles_total"])
	family("nimble_batch_coalesced_total", "counter", "Requests that rode a shared batch.", rows["nimble_batch_coalesced_total"])
	family("nimble_batch_fallback_total", "counter", "Requests dispatched individually after a batch fault.", rows["nimble_batch_fallback_total"])
	family("nimble_batch_largest_batch", "gauge", "Largest batch ever dispatched.", rows["nimble_batch_largest_batch"])

	family("nimble_entry_healthy", "gauge", "1 while the entry's circuit breaker is closed.", rows["nimble_entry_healthy"])

	if st, ok := s.reg.SharedStorageStats(); ok {
		gauge("nimble_shared_storage_resident_bytes", "Bytes parked in the cross-model storage tier.", float64(st.ResidentBytes))
		counter("nimble_shared_storage_hits_total", "Local-miss acquisitions served by the shared tier.", float64(st.Hits))
		counter("nimble_shared_storage_misses_total", "Shared-tier lookups that fell through to allocation.", float64(st.Misses))
		counter("nimble_shared_storage_donated_total", "Per-session overflow storages adopted by the shared tier.", float64(st.Donated))
		counter("nimble_shared_storage_dropped_total", "Donations refused at the per-class bound.", float64(st.Dropped))
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
