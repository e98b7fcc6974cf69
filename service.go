package nimble

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"nimble/internal/serve"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// PoolStats re-exports the session-pool counters.
type PoolStats = serve.Stats

// BatcherStats re-exports the per-entry merge counters of a row-separable
// entry: merged dispatches, requests dispatched alone, requests coalesced.
type BatcherStats = serve.BatchStats

// GateStats re-exports the per-entry admission-control counters.
type GateStats = serve.GateStats

// SchedulerStats re-exports the per-entry continuous-batching scheduler
// counters: queue depth, batch occupancy, step latency EWMA and p50/p99,
// and shed counts.
type SchedulerStats = serve.SchedStats

// ServiceStats snapshots a service's pool, merge, admission, and
// scheduler counters.
type ServiceStats struct {
	Pool       PoolStats        `json:"pool"`
	Batchers   []BatcherStats   `json:"batchers,omitempty"`
	Gates      []GateStats      `json:"gates,omitempty"`
	Schedulers []SchedulerStats `json:"schedulers,omitempty"`
}

// EntryHealth reports one entry's fault state.
type EntryHealth struct {
	Entry string `json:"entry"`
	// Healthy is false while the entry's circuit breaker is open.
	Healthy bool `json:"healthy"`
}

// Health is the service-level health summary: Degraded when any entry's
// circuit breaker is open. /healthz serves it.
type Health struct {
	Degraded bool          `json:"degraded"`
	Entries  []EntryHealth `json:"entries"`
}

// Service executes one Program for concurrent callers: a pool of VM
// sessions shares the frozen executable, requests for entries the compiler
// proved row-separable merge with whatever queued behind them while the
// sessions were busy, and every entry is fronted by an admission gate — a bounded queue with deadline-aware load
// shedding and a consecutive-failure circuit breaker — so overload
// produces fast typed ErrOverloaded rejections instead of unbounded
// queueing.
//
// Streams run under an iteration-level continuous-batching scheduler: a
// decode stream no longer pins a session for its whole generate loop;
// instead each loop iteration is a schedulable step, and one session
// interleaves steps from up to WithSchedulerWindow streams, admitting new
// arrivals mid-flight and retiring finished ones without draining the
// rest. WithPriority selects the request's lane; deadlines both order the
// run queue and shed hopeless arrivals early.
//
// A VM or kernel panic is isolated to its request: the caller gets
// ErrInternal and the poisoned session is quarantined (replaced by a fresh
// VM), never reused. All methods are safe for concurrent use.
type Service struct {
	p          *Program
	pool       *serve.Pool
	gates      map[string]*serve.Gate
	schedulers map[string]*serve.Scheduler
	lanes      int
	timeout    time.Duration
	closed     atomic.Bool
	inflight   atomic.Int64
}

// Serve builds a concurrent serving runtime over the program. With no
// options the defaults serve well: GOMAXPROCS sessions, the
// continuous-batching stream scheduler with an 8-stream window, bounded
// admission queues, request merging for row-separable entries, and
// per-entry circuit breakers. See ServiceOption for the knobs.
func (p *Program) Serve(opts ...ServiceOption) (*Service, error) {
	var cfg serviceConfig
	for _, o := range opts {
		o(&cfg)
	}
	return p.buildService(cfg)
}

func (p *Program) buildService(cfg serviceConfig) (*Service, error) {
	if p.unlinked {
		return nil, fmt.Errorf("nimble: program was loaded without a kernel library; pass the compiled Program to Load")
	}
	workers := cfg.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	lanes := cfg.lanes
	if lanes <= 0 {
		lanes = 1
	}
	pool, err := serve.NewPoolShared(p.exe, workers, cfg.sharedStorage)
	if err != nil {
		return nil, err
	}
	s := &Service{
		p:          p,
		pool:       pool,
		gates:      map[string]*serve.Gate{},
		schedulers: map[string]*serve.Scheduler{},
		lanes:      lanes,
		timeout:    cfg.requestTimeout,
	}
	for _, name := range p.names {
		s.gates[name] = serve.NewGate(serve.GateConfig{
			Entry:            name,
			Workers:          workers,
			MaxQueue:         cfg.maxQueue,
			BreakerThreshold: cfg.breakerThreshold,
			BreakerCooldown:  cfg.breakerCooldown,
		})
		s.schedulers[name] = serve.NewScheduler(pool, serve.SchedConfig{
			Entry:  name,
			Window: cfg.schedWindow,
			Lanes:  lanes,
		})
		if p.entries[name].RowSeparable {
			pool.MergeRows(name)
		}
	}
	return s, nil
}

// Program returns the served program (for introspection endpoints).
func (s *Service) Program() *Program { return s.p }

// Workers returns the session-pool size.
func (s *Service) Workers() int { return s.pool.Size() }

// resolveInvokeOpts folds the per-request options: the lane is clamped to
// the service's configured lane count, and a deadline budget tightens the
// context (the returned cancel is a no-op when nothing changed).
func (s *Service) resolveInvokeOpts(ctx context.Context, opts []InvokeOption) (context.Context, context.CancelFunc, int) {
	var ic invokeConfig
	for _, o := range opts {
		o(&ic)
	}
	lane := ic.lane
	if lane < 0 {
		lane = 0
	}
	if lane >= s.lanes {
		lane = s.lanes - 1
	}
	cancel := context.CancelFunc(func() {})
	if ic.budget > 0 {
		// WithTimeout never loosens: an earlier parent deadline still wins.
		ctx, cancel = context.WithTimeout(ctx, ic.budget)
	} else if s.timeout > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel = context.WithTimeout(ctx, s.timeout)
		}
	}
	return ctx, cancel, lane
}

// Invoke runs the named entry function over the session pool: at once on
// the caller's goroutine when a session is free, otherwise from the pool's
// queue, where a single-tensor call to a row-separable entry may merge with
// compatible requests into one dispatch. Before dispatch the request
// passes validation (ErrBadInput without consuming a session) and the
// entry's admission gate (ErrOverloaded with a Retry-After hint when the
// queue is full, the deadline is unmeetable, or the circuit breaker is
// open). Waits are abandoned when ctx is canceled: the error wraps
// ErrCanceled and ctx.Err(). A panic during execution surfaces as
// ErrInternal and quarantines the session it poisoned.
func (s *Service) Invoke(ctx context.Context, entry string, args ...Value) (Value, error) {
	return s.InvokeOpts(ctx, entry, args)
}

// InvokeOpts is Invoke with per-request options: WithPriority selects the
// pool lane the request waits in under contention (merged requests
// included), WithDeadlineBudget tightens its deadline from arrival, which
// also orders the queue within a lane.
func (s *Service) InvokeOpts(ctx context.Context, entry string, args []Value, opts ...InvokeOption) (Value, error) {
	if s.closed.Load() {
		return Value{}, fmt.Errorf("nimble: service: %w", ErrClosed)
	}
	if _, err := s.p.validate(entry, args); err != nil {
		return Value{}, err
	}
	ctx, cancel, lane := s.resolveInvokeOpts(ctx, opts)
	defer cancel()
	release, err := s.gates[entry].Admit(ctx)
	if err != nil {
		return Value{}, err
	}
	// In-flight accounting spans admission to release so Shutdown can
	// drain admitted requests; the closed flag is re-checked inside the
	// window so a request racing Shutdown either drains or rejects, never
	// hangs.
	s.inflight.Add(1)
	start := time.Now()
	out, err := s.dispatch(ctx, entry, lane, args)
	release(time.Since(start), err)
	s.inflight.Add(-1)
	return out, err
}

// InvokeStream runs the named entry like Invoke but returns a Stream over
// the values the program emits through stream.emit while it runs. The open
// is synchronous and carries Invoke's full admission semantics: validation
// (ErrBadInput), the entry's gate (ErrOverloaded with a Retry-After hint),
// and the scheduler's deadline projection all happen before InvokeStream
// returns, so a server can map an open failure to a proper HTTP status
// before it commits to a streaming response. Streams never merge —
// per-token emission is inherently per-request — and run under the
// continuous-batching scheduler instead: the stream owns no
// session; its decode loop is stepped one iteration at a time, interleaved
// with other streams on whichever session adopts it.
//
// The admission slot and the in-flight count are held for the stream's
// whole life and released when the run finishes or the stream is closed;
// Shutdown therefore drains open streams exactly like in-flight Invokes.
// RequestTimeout, when configured, bounds the entire stream, first token
// to last.
func (s *Service) InvokeStream(ctx context.Context, entry string, args ...Value) (*Stream, error) {
	return s.InvokeStreamOpts(ctx, entry, args)
}

// InvokeStreamOpts is InvokeStream with per-request options: WithPriority
// selects the scheduler lane, WithDeadlineBudget tightens the deadline the
// scheduler orders and sheds by.
func (s *Service) InvokeStreamOpts(ctx context.Context, entry string, args []Value, opts ...InvokeOption) (*Stream, error) {
	if s.closed.Load() {
		return nil, fmt.Errorf("nimble: service: %w", ErrClosed)
	}
	if _, err := s.p.validate(entry, args); err != nil {
		return nil, err
	}
	objs := make([]vm.Object, len(args))
	for i, a := range args {
		o, err := toObject(a)
		if err != nil {
			return nil, fmt.Errorf("nimble: %s arg %d: %w", entry, i, err)
		}
		objs[i] = o
	}
	ctx, cancelT, lane := s.resolveInvokeOpts(ctx, opts)
	release, err := s.gates[entry].Admit(ctx)
	if err != nil {
		cancelT()
		return nil, err
	}
	s.inflight.Add(1)
	start := time.Now()
	cleanup := func(err error) {
		release(time.Since(start), err)
		s.inflight.Add(-1)
		cancelT()
	}
	// Same race rule as Invoke: the closed flag is re-checked inside the
	// in-flight window so an open racing Shutdown either drains or rejects.
	if s.closed.Load() {
		err := fmt.Errorf("nimble: service: %w", ErrClosed)
		cleanup(err)
		return nil, err
	}
	sched := s.schedulers[entry]
	return runStream(ctx, func(runCtx context.Context, sink func(*tensor.Tensor) error) (vm.Object, error) {
		return sched.Stream(runCtx, lane, sink, entry, objs...)
	}, cleanup), nil
}

// dispatch runs one admitted request over the pool.
func (s *Service) dispatch(ctx context.Context, entry string, lane int, args []Value) (Value, error) {
	if s.closed.Load() {
		return Value{}, fmt.Errorf("nimble: service: %w", ErrClosed)
	}
	objs := make([]vm.Object, len(args))
	for i, a := range args {
		o, err := toObject(a)
		if err != nil {
			return Value{}, fmt.Errorf("nimble: %s arg %d: %w", entry, i, err)
		}
		objs[i] = o
	}
	out, err := s.pool.InvokeLane(ctx, lane, entry, objs...)
	if err != nil {
		return Value{}, canceled(err)
	}
	return fromObject(out)
}

// Stats snapshots the service counters.
func (s *Service) Stats() ServiceStats {
	st := ServiceStats{Pool: s.pool.Stats()}
	for _, name := range s.p.names {
		if b, ok := s.pool.BatchStats(name); ok {
			st.Batchers = append(st.Batchers, b)
		}
		st.Gates = append(st.Gates, s.gates[name].Stats())
		st.Schedulers = append(st.Schedulers, s.schedulers[name].Stats())
	}
	return st
}

// Health reports the circuit-breaker state per entry: Degraded is true
// while any breaker is open (that entry's recent requests kept dying in
// the VM). Serving layers expose it on /healthz so load balancers stop
// routing to a degraded replica before it pages anyone.
func (s *Service) Health() Health {
	h := Health{}
	for _, name := range s.p.names {
		ok := s.gates[name].Healthy()
		if !ok {
			h.Degraded = true
		}
		h.Entries = append(h.Entries, EntryHealth{Entry: name, Healthy: ok})
	}
	return h
}

// Shutdown closes the service gracefully: new Invokes fail immediately
// with ErrClosed, and admitted requests — running or still queued for a
// session — get until ctx is done to finish. When the context fires first
// the schedulers and pool close out from under the stragglers — requests
// and streams still queued fail with ErrClosed, active decode loops are
// retired at their next iteration boundary — and Shutdown reports how many
// were cut loose. A nil error means every admitted request drained.
func (s *Service) Shutdown(ctx context.Context) error {
	if s.closed.Swap(true) {
		return nil
	}
	// Wait for in-flight requests; poll — shutdown is not a hot path.
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	cut := false
	for !cut && s.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			cut = true
		case <-tick.C:
		}
	}
	stragglers := s.inflight.Load()
	for _, sc := range s.schedulers {
		sc.Close()
	}
	s.pool.Close()
	if cut && stragglers > 0 {
		return fmt.Errorf("nimble: service: drain window expired with %d requests in flight: %w", stragglers, ErrClosed)
	}
	return nil
}

// Close shuts the service down with a bounded default drain (5s): accepted
// and in-flight requests get that long to finish, stragglers are rejected
// with ErrClosed instead of hanging. Use Shutdown to choose the bound.
// Idempotent.
func (s *Service) Close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = s.Shutdown(ctx)
}
