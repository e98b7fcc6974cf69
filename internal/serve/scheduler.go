package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// SchedConfig parameterizes one entry's continuous-batching scheduler.
type SchedConfig struct {
	// Entry names the entry function this scheduler runs.
	Entry string
	// Window caps how many streams one session interleaves at once — the
	// iteration-level batch size (default 8).
	Window int
	// Lanes is the number of priority lanes (default 1). Lane 0 is served
	// first; FIFO within a lane, earliest-deadline first among deadlined
	// requests of the same lane.
	Lanes int
	// MaxSessions caps how many pool sessions the scheduler drives at once
	// (default: the pool size).
	MaxSessions int
}

func (c SchedConfig) withDefaults(pool *Pool) SchedConfig {
	if c.Window <= 0 {
		c.Window = 8
	}
	if c.Lanes <= 0 {
		c.Lanes = 1
	}
	if c.MaxSessions <= 0 || c.MaxSessions > pool.Size() {
		c.MaxSessions = pool.Size()
	}
	return c
}

// Scheduler is one entry's iteration-level continuous-batching run queue —
// the serving architecture production LLM systems converged on, applied to
// the paper's VM: instead of a stream pinning a pooled session for its
// whole decode loop, each loop is decomposed into steps (vm.StreamRun
// parks at every compiled backward-Goto with its KV-cache state in
// planner-owned buffers), and a worker goroutine holding one session
// round-robins steps across up to Window streams. New arrivals join a
// running session's active set at the next iteration boundary; finished
// streams retire without draining their batch-mates. The submit queue is
// ordered by (lane, deadline, arrival) and sheds on arrival when the
// EWMA-projected completion already overshoots the request's deadline.
//
// All methods are safe for concurrent use.
type Scheduler struct {
	pool *Pool
	cfg  SchedConfig

	mu      sync.Mutex
	queue   []*schedStream
	workers map[*schedWorker]struct{}
	active  int // streams adopted by workers and not yet retired
	nextSeq uint64
	closed  bool

	// stats, under mu.
	submitted     int64
	completed     int64
	canceledN     int64
	failed        int64
	shedDeadline  int64
	steps         int64
	stepEWMA      time.Duration
	streamSteps   float64 // EWMA of steps per completed stream
	occupancyEWMA float64 // EWMA of active streams observed per step
	peakOccupancy int
	stepHist      histogram
}

// NewScheduler builds a scheduler over the pool. The pool is shared: plain
// Invokes and the scheduler's workers draw from the same sessions, so
// MaxSessions bounds how much of it streaming may occupy.
func NewScheduler(pool *Pool, cfg SchedConfig) *Scheduler {
	return &Scheduler{pool: pool, cfg: cfg.withDefaults(pool), workers: map[*schedWorker]struct{}{}}
}

// schedStream is one streaming request's life in the scheduler: queued,
// then adopted by a worker that steps it to completion, one iteration at a
// time, interleaved with its batch-mates.
type schedStream struct {
	order
	ctx   context.Context
	entry string
	args  []vm.Object

	// tokens hands each emitted tensor from the stepping worker to the
	// consumer relay. Capacity 1: the worker only steps a stream whose
	// previous token has been consumed (pending false), so the send never
	// blocks for one-emit-per-iteration programs, and a multi-emit
	// iteration falls back to a context-bounded blocking send.
	tokens chan *tensor.Tensor
	// pending is set (before the send) when a token sits undelivered and
	// cleared by the relay after receiving it; the worker skips pending
	// streams so one slow consumer cannot head-of-line-block the batch.
	pending atomic.Bool
	// killErr, once set, makes the worker retire the stream at its next
	// boundary (consumer sink failed without a context cancellation).
	killErr atomic.Pointer[error]

	run   *vm.StreamRun // nil until the worker's first step
	steps int

	// done closes at retirement; result/err are valid after.
	done   chan struct{}
	result vm.Object
	err    error
}

func (s *schedStream) kill(err error) { s.killErr.CompareAndSwap(nil, &err) }

func (s *schedStream) killed() error {
	if p := s.killErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Stream runs one streaming request through the run queue: it blocks until
// the run finishes (or ctx cancels it) and returns the entry's final
// result, delivering each emitted tensor to sink along the way. Backpressure
// is per-stream: an unconsumed token parks only its own stream at the next
// iteration boundary while batch-mates keep stepping. The deadline, if ctx
// carries one, both orders the queue and sheds on arrival when the
// projected completion already overshoots it.
func (sc *Scheduler) Stream(ctx context.Context, lane int, sink func(*tensor.Tensor) error, entry string, args ...vm.Object) (vm.Object, error) {
	if lane < 0 {
		lane = 0
	}
	if lane >= sc.cfg.Lanes {
		lane = sc.cfg.Lanes - 1
	}
	s := &schedStream{
		order:  order{lane: lane},
		ctx:    ctx,
		entry:  entry,
		args:   args,
		tokens: make(chan *tensor.Tensor, 1),
		done:   make(chan struct{}),
	}
	if dl, ok := ctx.Deadline(); ok {
		s.deadline = dl
	}
	if err := sc.submit(s); err != nil {
		return nil, err
	}
	for {
		select {
		case t := <-s.tokens:
			s.pending.Store(false)
			sc.wakeAll()
			if err := sink(t); err != nil {
				s.kill(fmt.Errorf("serve: stream sink: %w", err))
				sc.wakeAll()
				return sc.awaitRetire(s)
			}
		case <-ctx.Done():
			if sc.removeQueued(s) {
				// Never adopted: the relay retires it directly — a worker
				// blocked behind other traffic must not delay a client that
				// already gave up.
				sc.finishUnadopted(s, Canceled(ctx.Err()))
				return nil, s.err
			}
			sc.wakeAll()
			return sc.awaitRetire(s)
		case <-s.done:
			return sc.drainRetired(s, sink)
		}
	}
}

// awaitRetire discards further tokens (so a blocked emit unwinds) until the
// worker retires the stream at its next iteration boundary.
//
// vet:no-ctx — the worker observes the same cancellation/kill that brought
// us here and retires the stream within one step.
func (sc *Scheduler) awaitRetire(s *schedStream) (vm.Object, error) {
	for {
		select {
		case <-s.tokens:
		case <-s.done:
			return s.result, s.err
		}
	}
}

// drainRetired delivers tokens that were emitted in the stream's final
// step (the decoder's last iteration emits, then returns — both land in
// the same Step call), then reports the outcome.
func (sc *Scheduler) drainRetired(s *schedStream, sink func(*tensor.Tensor) error) (vm.Object, error) {
	for {
		select {
		case t := <-s.tokens:
			if err := sink(t); err != nil {
				return s.result, s.err
			}
		default:
			return s.result, s.err
		}
	}
}

// submit queues the stream, shedding on arrival when its deadline is
// already unmeetable, and makes sure a worker will pick it up.
func (sc *Scheduler) submit(s *schedStream) error {
	if err := s.ctx.Err(); err != nil {
		return Canceled(err)
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.closed {
		return fmt.Errorf("serve: scheduler: %w", ErrClosed)
	}
	if !s.deadline.IsZero() {
		if proj := sc.projectedWaitLocked(); proj > 0 {
			if remaining := time.Until(s.deadline); proj > remaining {
				sc.shedDeadline++
				return &OverloadError{
					Entry:      sc.cfg.Entry,
					Reason:     "projected completion past deadline",
					RetryAfter: proj - remaining,
				}
			}
		}
	}
	s.seq = sc.nextSeq
	sc.nextSeq++
	sc.queue = append(sc.queue, s)
	sc.submitted++
	// Capacity check: spare window across live workers, counting the queue
	// depth ahead of this stream. Spawn while the pool allows; always wake,
	// so a sleeping worker with spare window adopts at its next boundary.
	if spare := len(sc.workers)*sc.cfg.Window - sc.active; len(sc.queue) > spare && len(sc.workers) < sc.cfg.MaxSessions {
		sc.spawnLocked()
	}
	sc.wakeAllLocked()
	return nil
}

// projectedWaitLocked estimates a new arrival's completion time from the
// step-latency EWMA: a full solo stream costs streamSteps·stepEWMA;
// interleaving multiplies that by the share of a session's window the
// stream will contend with, and arrivals beyond a full complement
// (MaxSessions·Window) wait in whole waves behind it. Deliberately rough —
// it exists to shed hopeless deadlines at arrival, not to promise latency.
func (sc *Scheduler) projectedWaitLocked() time.Duration {
	if sc.stepEWMA <= 0 || sc.streamSteps <= 0 {
		return 0
	}
	streamTime := time.Duration(sc.streamSteps * float64(sc.stepEWMA))
	inFlight := sc.active + len(sc.queue) + 1
	share := (inFlight + sc.cfg.MaxSessions - 1) / sc.cfg.MaxSessions
	if share > sc.cfg.Window {
		share = sc.cfg.Window
	}
	proj := time.Duration(share) * streamTime
	if full := sc.cfg.MaxSessions * sc.cfg.Window; inFlight > full {
		waves := (inFlight - full + full - 1) / full
		proj += time.Duration(waves*sc.cfg.Window) * streamTime
	}
	return proj
}

// popLocked removes and returns the best queued stream: lowest lane, then
// earliest deadline (deadline-less last), then arrival order. Linear scan;
// the queue is admission-bounded upstream.
func (sc *Scheduler) popLocked() *schedStream {
	if len(sc.queue) == 0 {
		return nil
	}
	best := 0
	for i := 1; i < len(sc.queue); i++ {
		if streamLess(sc.queue[i], sc.queue[best]) {
			best = i
		}
	}
	s := sc.queue[best]
	sc.queue = append(sc.queue[:best], sc.queue[best+1:]...)
	sc.active++
	return s
}

func streamLess(a, b *schedStream) bool { return a.before(b.order) }

func (sc *Scheduler) removeQueued(s *schedStream) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, q := range sc.queue {
		if q == s {
			sc.queue = append(sc.queue[:i], sc.queue[i+1:]...)
			return true
		}
	}
	return false
}

// finishUnadopted retires a stream the relay pulled back out of the queue
// before any worker adopted it.
func (sc *Scheduler) finishUnadopted(s *schedStream, err error) {
	s.err = err
	close(s.done)
	sc.mu.Lock()
	sc.canceledN++
	sc.mu.Unlock()
}

func (sc *Scheduler) spawnLocked() {
	w := &schedWorker{sc: sc, wake: make(chan struct{}, 1)}
	sc.workers[w] = struct{}{}
	go w.run()
}

func (sc *Scheduler) wakeAll() {
	sc.mu.Lock()
	sc.wakeAllLocked()
	sc.mu.Unlock()
}

// vet:no-ctx — each wake is a non-blocking send into a single-slot buffer.
func (sc *Scheduler) wakeAllLocked() {
	for w := range sc.workers {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// noteStep records one iteration's latency and the batch occupancy it ran
// under.
func (sc *Scheduler) noteStep(d time.Duration, occupancy int) {
	sc.mu.Lock()
	sc.steps++
	sc.stepHist.observe(d)
	if sc.stepEWMA == 0 {
		sc.stepEWMA = d
	} else {
		sc.stepEWMA += (d - sc.stepEWMA) / 8
	}
	occ := float64(occupancy)
	if sc.occupancyEWMA == 0 {
		sc.occupancyEWMA = occ
	} else {
		sc.occupancyEWMA += (occ - sc.occupancyEWMA) / 8
	}
	sc.mu.Unlock()
}

// Close fails queued streams with ErrClosed and tells workers to retire
// their active ones at the next iteration boundary. In-flight relays
// observe the retirement through their done channels; Close does not wait
// for them.
func (sc *Scheduler) Close() {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return
	}
	sc.closed = true
	q := sc.queue
	sc.queue = nil
	sc.failed += int64(len(q))
	sc.wakeAllLocked()
	sc.mu.Unlock()
	for _, s := range q {
		s.err = fmt.Errorf("serve: scheduler: %w", ErrClosed)
		close(s.done)
	}
}

// SchedStats is a snapshot of one entry's scheduler counters.
type SchedStats struct {
	Entry     string `json:"entry"`
	Submitted int64  `json:"submitted"`
	Completed int64  `json:"completed"`
	Canceled  int64  `json:"canceled"`
	Failed    int64  `json:"failed"`
	// ShedDeadline counts arrivals rejected because the EWMA-projected
	// completion already overshot their deadline.
	ShedDeadline int64 `json:"shed_deadline"`
	// Queued/Active/Sessions are instantaneous: waiting streams, streams
	// adopted by workers, and sessions currently driven.
	Queued   int `json:"queued"`
	Active   int `json:"active"`
	Sessions int `json:"sessions"`
	// PeakOccupancy is the most streams one session ever interleaved;
	// OccupancyEWMA smooths the per-step batch size.
	PeakOccupancy int     `json:"peak_occupancy"`
	OccupancyEWMA float64 `json:"occupancy_ewma"`
	// Steps counts loop iterations executed; StepsPerStream smooths how
	// many a completed stream needed.
	Steps          int64   `json:"steps"`
	StepsPerStream float64 `json:"steps_per_stream"`
	StepEWMAUS     float64 `json:"step_ewma_us"`
	StepP50US      float64 `json:"step_p50_us"`
	StepP99US      float64 `json:"step_p99_us"`
	// ProjectedWaitUS is the current arrival-time completion estimate.
	ProjectedWaitUS float64 `json:"projected_wait_us"`
}

// Stats snapshots the scheduler.
func (sc *Scheduler) Stats() SchedStats {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return SchedStats{
		Entry:           sc.cfg.Entry,
		Submitted:       sc.submitted,
		Completed:       sc.completed,
		Canceled:        sc.canceledN,
		Failed:          sc.failed,
		ShedDeadline:    sc.shedDeadline,
		Queued:          len(sc.queue),
		Active:          sc.active,
		Sessions:        len(sc.workers),
		PeakOccupancy:   sc.peakOccupancy,
		OccupancyEWMA:   sc.occupancyEWMA,
		Steps:           sc.steps,
		StepsPerStream:  sc.streamSteps,
		StepEWMAUS:      float64(sc.stepEWMA.Microseconds()),
		StepP50US:       float64(sc.stepHist.quantile(0.50).Microseconds()),
		StepP99US:       float64(sc.stepHist.quantile(0.99).Microseconds()),
		ProjectedWaitUS: float64(sc.projectedWaitLocked().Microseconds()),
	}
}

// schedWorker drives one pool session: it adopts queued streams up to the
// window and round-robins one iteration step across them per pass.
type schedWorker struct {
	sc     *Scheduler
	sess   *Session
	wake   chan struct{}
	active []*schedStream
}

func (w *schedWorker) run() {
	sc := w.sc
	sess, err := sc.pool.Acquire(context.Background())
	if err != nil {
		// Pool closed while spawning: deregister; Close (or the relays'
		// cancellations) settles whatever is queued.
		sc.mu.Lock()
		delete(sc.workers, w)
		sc.mu.Unlock()
		return
	}
	w.sess = sess
	for {
		sc.mu.Lock()
		for len(w.active) < sc.cfg.Window {
			s := sc.popLocked()
			if s == nil {
				break
			}
			w.active = append(w.active, s)
			if len(w.active) > sc.peakOccupancy {
				sc.peakOccupancy = len(w.active)
			}
		}
		if len(w.active) == 0 {
			// Nothing active and nothing queued: retire this worker. Check
			// and deregistration are atomic under sc.mu, so a racing submit
			// either still sees this worker (and its wake is consumed by
			// nobody — but the spare-capacity math no longer counts us) or
			// spawns afresh.
			delete(sc.workers, w)
			sc.mu.Unlock()
			sc.pool.Release(w.sess)
			return
		}
		closed := sc.closed
		sc.mu.Unlock()

		progressed := false
		n, i := 0, 0
		for ; i < len(w.active); i++ {
			s := w.active[i]
			occupancy := len(w.active)
			retired := true
			switch {
			case closed:
				w.retire(s, nil, fmt.Errorf("serve: scheduler: %w", ErrClosed), true)
			case s.ctx.Err() != nil:
				w.retire(s, nil, Canceled(s.ctx.Err()), true)
			case s.killed() != nil:
				w.retire(s, nil, s.killed(), true)
			case s.pending.Load():
				// Last token not consumed yet: stepping would force the
				// emit into a blocking send and stall the batch.
				retired = false
				w.active[n] = s
				n++
				continue
			default:
				retired = w.step(s, occupancy)
			}
			progressed = true
			if !retired {
				w.active[n] = s
				n++
			}
			if w.sess.poisoned {
				i++
				break
			}
		}
		// On a poison break the streams after i were never visited this
		// pass; compact them in with the kept ones so the poison path below
		// retires every survivor — dropping one would strand its relay in
		// awaitRetire forever.
		for ; i < len(w.active); i++ {
			w.active[n] = w.active[i]
			n++
		}
		for j := n; j < len(w.active); j++ {
			w.active[j] = nil
		}
		w.active = w.active[:n]

		if w.sess.poisoned {
			// The panic corrupted the whole VM — every co-resident stream's
			// parked frames live in its storage pool — so they are lost
			// with it. Release quarantines the session and mints a fresh
			// one; a successor worker picks up the queue.
			coErr := fmt.Errorf("serve: scheduler: session poisoned by a batch-mate's fault: %w", ErrInternal)
			for i, s := range w.active {
				w.retire(s, nil, coErr, false)
				w.active[i] = nil
			}
			w.active = w.active[:0]
			sc.mu.Lock()
			delete(sc.workers, w)
			respawn := len(sc.queue) > 0 && !sc.closed
			if respawn {
				sc.spawnLocked()
			}
			sc.mu.Unlock()
			sc.pool.Release(w.sess)
			return
		}

		if !progressed {
			// Every active stream is waiting on its consumer; sleep until a
			// relay drains a token, a cancellation arrives, or a submit
			// lands. vet:no-ctx — every path that changes the condition
			// above sends a wake.
			<-w.wake
		}
	}
}

// step advances one stream by one iteration; reports whether it retired.
func (w *schedWorker) step(s *schedStream, occupancy int) bool {
	if s.run == nil {
		r, err := w.sess.BeginStream(vmSink(s), s.entry, s.args...)
		if err != nil {
			w.retire(s, nil, err, false)
			return true
		}
		s.run = r
	}
	start := time.Now()
	done, err := w.sess.StepStream(s.ctx, s.entry, s.run)
	w.sc.noteStep(time.Since(start), occupancy)
	s.steps++
	if !done {
		return false
	}
	if err != nil {
		w.retire(s, nil, err, false)
		return true
	}
	out, _ := s.run.Result()
	w.retire(s, out, nil, false)
	return true
}

// vmSink builds the VM-level emit sink for one stream: a non-blocking send
// into the stream's single-slot buffer (pending is set first, so the
// worker's skip check can never miss a buffered token), falling back to a
// context-bounded blocking send for multi-emit iterations.
func vmSink(s *schedStream) func(*tensor.Tensor) error {
	return func(t *tensor.Tensor) error {
		s.pending.Store(true)
		select {
		case s.tokens <- t:
			return nil
		default:
		}
		select {
		case s.tokens <- t:
			return nil
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}

// retire seals a stream's outcome. abortRun releases a parked run's
// buffers (cancellation paths); a poisoned session skips that — its pool
// is garbage wholesale and the VM is about to be quarantined.
func (w *schedWorker) retire(s *schedStream, out vm.Object, err error, abortRun bool) {
	if abortRun && s.run != nil && !w.sess.poisoned {
		s.run.Abort()
	}
	s.result, s.err = out, err
	close(s.done)
	sc := w.sc
	sc.pool.Note(err)
	sc.mu.Lock()
	sc.active--
	switch {
	case err == nil:
		sc.completed++
		if s.steps > 0 {
			fs := float64(s.steps)
			if sc.streamSteps == 0 {
				sc.streamSteps = fs
			} else {
				sc.streamSteps += (fs - sc.streamSteps) / 8
			}
		}
	case errors.Is(err, ErrCanceled):
		sc.canceledN++
	default:
		sc.failed++
	}
	sc.mu.Unlock()
}
