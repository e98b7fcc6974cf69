// Package serve is Nimble's concurrent serving runtime. The paper's
// compile-once VM makes dynamic models servable; this package makes them
// serve concurrent traffic: one frozen vm.Executable (weights, bytecode,
// kernel table — all immutable) is shared by a pool of vm.VM sessions, each
// owning the mutable per-execution state (storage pool, frames, scratch,
// profiler). Requests check a session out, run, and return it.
//
// The pool's waiter queue is the one queue a one-shot request waits in. A
// request that finds a free session runs at once on the caller's
// goroutine; one that does not parks, ordered by (lane, deadline,
// arrival) — the same order the stream Scheduler uses. For entries
// registered with MergeRows, Release hands the session to the best waiter
// together with every compatible waiter behind it, and they run as one
// merged kernel dispatch: a batch is exactly what piled up while the
// sessions were busy, with no timer and no collector goroutine.
//
// Every blocking path accepts a context.Context: a parked request abandons
// its wait when the context is canceled (without consuming a session or
// failing its would-be batch-mates). Cancellation errors wrap both
// ErrCanceled and the underlying context error.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"nimble/internal/kernels"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// Session is one checked-out execution context over the pool's shared
// executable. A session must be used by at most one goroutine between
// Acquire and Release; its storage pool and frame recycler carry over
// between invocations, so repeated requests on one session reuse memory
// exactly like the single-VM hot path.
type Session struct {
	machine *vm.VM
	id      int
	// invocations counts Invoke calls served by this session. Atomic:
	// increments happen on the goroutine holding the session while Stats
	// may read concurrently from another.
	invocations atomic.Int64
	// poisoned marks a session whose VM panicked mid-execution. Its storage
	// pool, frames, and scratch may be inconsistent (a kernel died halfway
	// through writing a planner buffer), so Release quarantines it: the
	// session is discarded and a fresh VM minted in its place. Written and
	// read on the goroutine that holds the session.
	poisoned bool
}

// Invoke runs the named entry function on this session. The context is
// checked at VM call boundaries, so a deep recursion (an LSTM stepping a
// long sequence) notices cancellation mid-run. A VM or kernel panic is
// recovered here — the isolation boundary between one request and the
// process — converted into an *InternalError, and the session is poisoned
// so the pool replaces it instead of reusing its state.
func (s *Session) Invoke(ctx context.Context, name string, args ...vm.Object) (out vm.Object, err error) {
	s.invocations.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			s.poisoned = true
			out, err = nil, Internal(name, rec, debug.Stack())
		}
	}()
	out, err = s.machine.InvokeContext(ctx, name, args...)
	return out, WrapCtxErr(err)
}

// InvokeStream runs the named entry on this session, delivering every
// tensor the program passes through the IR's stream.emit operator to sink
// while the run is still in flight. A sink error aborts the run. Panics are
// recovered and poison the session exactly as in Invoke — including panics
// raised while a partial token stream has already been delivered, which is
// why streaming consumers must treat the stream's final error, not the
// tokens, as the request's outcome.
func (s *Session) InvokeStream(ctx context.Context, sink func(*tensor.Tensor) error, name string, args ...vm.Object) (out vm.Object, err error) {
	s.invocations.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			s.poisoned = true
			out, err = nil, Internal(name, rec, debug.Stack())
		}
	}()
	out, err = s.machine.InvokeStreamContext(ctx, sink, name, args...)
	return out, WrapCtxErr(err)
}

// BeginStream prepares a step-resumable streaming run on this session: the
// vm.StreamRun executes one compiled-loop iteration per StepStream call
// instead of pinning the session for the whole decode. Many StreamRuns may
// be parked on one session at once — that is the point — but their Begin
// and Step calls must all happen on the goroutine that holds the session.
// Panics poison the session exactly as in Invoke.
func (s *Session) BeginStream(sink func(*tensor.Tensor) error, name string, args ...vm.Object) (r *vm.StreamRun, err error) {
	s.invocations.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			s.poisoned = true
			r, err = nil, Internal(name, rec, debug.Stack())
		}
	}()
	return s.machine.BeginStream(sink, name, args...)
}

// StepStream advances a run begun with BeginStream by one compiled-loop
// iteration (or to completion for loop-free entries). A panic poisons the
// session and surfaces as *InternalError; the caller must then treat every
// other run parked on this session as lost too, since they share the
// poisoned VM's storage pool.
func (s *Session) StepStream(ctx context.Context, name string, r *vm.StreamRun) (done bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.poisoned = true
			done, err = true, Internal(name, rec, debug.Stack())
		}
	}()
	done, err = r.Step(ctx)
	return done, WrapCtxErr(err)
}

// Poisoned reports whether this session's VM panicked mid-execution. Valid
// on the goroutine holding the session.
func (s *Session) Poisoned() bool { return s.poisoned }

// ID returns the session's index within its pool.
func (s *Session) ID() int { return s.id }

// MaxMerge caps how many queued requests one merged dispatch serves.
const MaxMerge = 16

// order is the one queue order shared by the pool's waiters and the
// scheduler's streams: lower lane first, then earlier deadline (requests
// without one sort last), then arrival.
type order struct {
	lane     int
	deadline time.Time // zero = none
	seq      uint64
}

func (a order) before(b order) bool {
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	if !a.deadline.Equal(b.deadline) {
		if a.deadline.IsZero() {
			return false
		}
		if b.deadline.IsZero() {
			return true
		}
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}

// waiter is one goroutine parked with no free session. Every waiter
// removed from the queue receives exactly one grant on its single-slot
// channel, so no send ever blocks.
type waiter struct {
	order
	ctx   context.Context
	ch    chan grant
	start time.Time
	// entry and in are set for a mergeable request: a single rank>=1
	// tensor for an entry registered with MergeRows.
	entry string
	in    *tensor.Tensor
	// leader is set (under Pool.mu) when the waiter is handed a session,
	// so a cancellation racing the handoff knows it must pass the session
	// and its mates on rather than drop them.
	leader bool
}

// grant is what a parked waiter receives: a session to run on, a result
// a leader computed for it, or an error.
type grant struct {
	s     *Session
	mates []*waiter
	out   vm.Object
	err   error
}

// rowStats counts one row-separable entry's dispatches.
type rowStats struct {
	batches, singles, coalesced, fallbacks, canceled atomic.Int64
	largest                                          atomic.Int64
}

// Pool shares one immutable executable across nWorkers VM sessions with
// LIFO checkout: the most recently released session is handed out first,
// so under light load a few hot sessions serve everything and their
// storage pools and frame recyclers stay cache-resident; cold sessions
// are only touched when concurrency actually demands them.
type Pool struct {
	exe *vm.Executable
	// shared is the cross-VM storage tier every session (including the
	// fresh VMs minted by quarantine) attaches to; nil means each session
	// keeps a purely private storage pool.
	shared *vm.SharedStoragePool
	// rows holds the entries registered with MergeRows. Written before the
	// pool serves traffic, read-only after.
	rows map[string]*rowStats

	mu      sync.Mutex
	free    []*Session // LIFO stack
	all     []*Session
	waiters []*waiter // parked requests, kept in order.before order
	nextSeq uint64
	closed  bool

	// stats. inFlight/peakInUse/waits/waitTime piggyback on the checkout
	// lock; invocations/errors are atomic so the result path does not take
	// the pool mutex a third time per request.
	invocations atomic.Int64
	errors      atomic.Int64
	inFlight    int
	peakInUse   int
	waits       int64 // requests that found no free session and parked
	waitTime    time.Duration
	quarantined int64 // poisoned sessions replaced by fresh VMs
}

// NewPool freezes exe and builds nWorkers sessions over it. The executable
// must be fully constructed (compiled, or deserialized and linked) before
// pooling; Freeze makes any later mutation a panic instead of a data race.
func NewPool(exe *vm.Executable, nWorkers int) (*Pool, error) {
	return NewPoolShared(exe, nWorkers, nil)
}

// NewPoolShared is NewPool with a cross-VM storage tier: every session —
// including the fresh VMs quarantine mints over poisoned ones — attaches
// to shared, so local storage misses draw from the common stock and local
// overflow migrates there instead of dying. Passing the same shared pool
// to the pools of several executables is the point: a multi-model server's
// resident buffer memory then tracks the concurrent working set, not the
// model count. A nil shared pool degrades to NewPool.
func NewPoolShared(exe *vm.Executable, nWorkers int, shared *vm.SharedStoragePool) (*Pool, error) {
	if nWorkers <= 0 {
		return nil, fmt.Errorf("serve: pool needs at least 1 worker, got %d", nWorkers)
	}
	if len(exe.KernelNames) > 0 {
		// Surface unlinked kernels at pool construction, not first request.
		if _, err := exe.Kernel(0); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	exe.Freeze()
	p := &Pool{exe: exe, shared: shared, rows: map[string]*rowStats{}}
	for i := 0; i < nWorkers; i++ {
		s := p.newSession(i)
		p.all = append(p.all, s)
		p.free = append(p.free, s)
	}
	return p, nil
}

// MergeRows marks entry as row-independent along its leading dimension
// (an MLP/classifier head over [batch, features], not a BERT sequence
// whose positions attend to each other), so queued single-tensor requests
// to it may be concatenated into one dispatch and sliced back apart.
// passes.RowSeparable decides this from the IR; the public nimble.Service
// wires it automatically. Call before the pool serves traffic.
func (p *Pool) MergeRows(entry string) { p.rows[entry] = &rowStats{} }

// newSession mints session i's VM with the pool's storage configuration
// applied; construction and the quarantine replacement path share it so a
// fresh VM can never silently lose the shared-tier attachment.
func (p *Pool) newSession(i int) *Session {
	m := vm.New(p.exe)
	if p.shared != nil {
		m.AttachSharedPool(p.shared)
	}
	m.MarkPooled()
	return &Session{machine: m, id: i}
}

// Executable returns the shared (frozen) executable.
func (p *Pool) Executable() *vm.Executable { return p.exe }

// Size returns the number of sessions the pool owns.
func (p *Pool) Size() int { return len(p.all) }

// Acquire checks out a session, blocking until one is free, the context is
// canceled, or the pool is closed. A canceled context returns an error
// wrapping ErrCanceled and ctx.Err() without consuming a session — a
// pre-canceled context never joins the wait queue at all. A closed pool
// returns ErrClosed. Parked Acquires wait in lane 0.
func (p *Pool) Acquire(ctx context.Context) (*Session, error) {
	g, err := p.checkout(&waiter{ctx: ctx})
	return g.s, err
}

// checkout hands w a free session at once, or parks it in the queue until
// Release grants it one, a leader answers it, the pool closes, or w.ctx is
// done.
func (p *Pool) checkout(w *waiter) (grant, error) {
	ctx := w.ctx
	if err := ctx.Err(); err != nil {
		return grant{}, Canceled(err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return grant{}, fmt.Errorf("serve: pool: %w", ErrClosed)
	}
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		p.inFlight++
		p.peakInUse = max(p.peakInUse, p.inFlight)
		p.mu.Unlock()
		return grant{s: s}, nil
	}
	if dl, ok := ctx.Deadline(); ok {
		w.deadline = dl
	}
	w.seq = p.nextSeq
	p.nextSeq++
	w.ch = make(chan grant, 1)
	w.start = time.Now()
	i := len(p.waiters)
	for i > 0 && w.before(p.waiters[i-1].order) {
		i--
	}
	p.waiters = slices.Insert(p.waiters, i, w)
	p.waits++
	p.mu.Unlock()

	select {
	case g := <-w.ch:
		return g, g.err
	case <-ctx.Done():
		p.mu.Lock()
		if i := slices.Index(p.waiters, w); i >= 0 {
			p.waiters = slices.Delete(p.waiters, i, i+1)
			p.mu.Unlock()
			if w.in != nil {
				p.rows[w.entry].canceled.Add(1)
			}
			return grant{}, Canceled(ctx.Err())
		}
		leader := w.leader
		p.mu.Unlock()
		if leader {
			// A session was handed over concurrently with the
			// cancellation; it must not leak out of the pool.
			g := <-w.ch
			p.pass(g.s, g.mates)
		}
		// Otherwise w was taken as a mate (its leader's answer lands in
		// the buffered channel unread) or answered by Close.
		return grant{}, Canceled(ctx.Err())
	}
}

// pass gives up a session granted to a canceled waiter: the first live
// mate becomes the leader of the rest, or the session goes back to the
// pool.
//
// vet:no-ctx — each send fills a single-slot buffer the mate owns.
func (p *Pool) pass(s *Session, mates []*waiter) {
	p.mu.Lock()
	for i, m := range mates {
		if err := m.ctx.Err(); err != nil {
			p.rows[m.entry].canceled.Add(1)
			m.ch <- grant{err: Canceled(err)}
			continue
		}
		m.leader = true
		p.mu.Unlock()
		m.ch <- grant{s: s, mates: mates[i+1:]}
		return
	}
	p.mu.Unlock()
	p.Release(s)
}

// quarantine replaces a poisoned session (its VM panicked mid-execution)
// with a fresh VM over the same frozen executable. The old one is dropped
// on the floor for the GC, so pool size is conserved and no state touched
// by the faulting request can resurface in a later one.
func (p *Pool) quarantine(s *Session) *Session {
	fresh := p.newSession(s.id)
	fresh.invocations.Store(s.invocations.Load())
	p.mu.Lock()
	p.quarantined++
	for i, old := range p.all {
		if old == s {
			p.all[i] = fresh
			break
		}
	}
	p.mu.Unlock()
	return fresh
}

// Release returns a session to the pool. If a request is parked, the
// session transfers directly to the best one (it stays in flight, just
// under a new owner). When that waiter is mergeable it also takes every
// other queued waiter for the same entry whose tensor concatenates with
// its own, up to MaxMerge in all, so a batch is exactly what piled up
// while the sessions were busy. With nobody parked the session joins the
// LIFO free stack. A poisoned session never re-enters circulation: it is
// quarantined first.
//
// vet:no-ctx — the only channel operation is the direct handoff to a parked
// waiter, whose single-slot buffer the waiter owns; the send can never
// block.
func (p *Pool) Release(s *Session) {
	if s.poisoned {
		s = p.quarantine(s)
	}
	p.mu.Lock()
	if len(p.waiters) == 0 {
		p.free = append(p.free, s)
		p.inFlight--
		p.mu.Unlock()
		return
	}
	w := p.waiters[0]
	p.waiters = p.waiters[1:]
	w.leader = true
	p.waitTime += time.Since(w.start)
	var mates []*waiter
	if w.in != nil {
		mates = p.takeMatesLocked(w)
	}
	p.mu.Unlock()
	w.ch <- grant{s: s, mates: mates}
}

// takeMatesLocked removes and returns the queued waiters that can merge
// with the leader w, in queue order, up to MaxMerge-1 of them. Ragged
// shapes never merge: concatenating them would need padding.
func (p *Pool) takeMatesLocked(w *waiter) []*waiter {
	var mates []*waiter
	now := time.Now()
	kept := p.waiters[:0]
	for _, q := range p.waiters {
		if len(mates) < MaxMerge-1 && q.in != nil && q.entry == w.entry && concatenates(q.in, w.in) {
			p.waitTime += now.Sub(q.start)
			mates = append(mates, q)
			continue
		}
		kept = append(kept, q)
	}
	clear(p.waiters[len(kept):])
	p.waiters = kept
	return mates
}

// concatenates reports whether a and b join along dim 0 without padding:
// same dtype, same rank, same trailing extents.
func concatenates(a, b *tensor.Tensor) bool {
	return a.DType() == b.DType() && a.Shape()[1:].Equal(b.Shape()[1:])
}

// Invoke checks out a session, runs the entry function, and returns the
// session before reporting the result. Safe for any number of concurrent
// callers; calls beyond the pool size queue on the checkout, and the queue
// wait is abandoned when ctx is canceled.
func (p *Pool) Invoke(ctx context.Context, name string, args ...vm.Object) (vm.Object, error) {
	return p.InvokeLane(ctx, 0, name, args...)
}

// InvokeLane is Invoke through a priority lane: when the pool is
// contended, parked requests are served by (lane, deadline, arrival). A
// request that finds a free session runs at once on the caller's
// goroutine. A single rank>=1 tensor for an entry registered with
// MergeRows that had to wait may be served by a merged dispatch: the
// leader (the waiter Release picked) is handed the compatible requests
// queued behind it — everything that piled up while the sessions were busy
// — concatenates their rows onto its own, runs once, and slices the output
// back apart. A merged run is not interrupted by any one member's
// cancellation; its leader waits for it.
func (p *Pool) InvokeLane(ctx context.Context, lane int, name string, args ...vm.Object) (vm.Object, error) {
	w := &waiter{order: order{lane: lane}, ctx: ctx, entry: name}
	if p.rows[name] != nil {
		w.in = rowInput(args)
	}
	g, err := p.checkout(w)
	if err != nil {
		return nil, err
	}
	if g.s == nil {
		return g.out, g.err // answered by a leader's merged dispatch
	}
	var live []*waiter
	for _, m := range g.mates {
		if err := m.ctx.Err(); err != nil {
			p.rows[name].canceled.Add(1)
			m.ch <- grant{err: Canceled(err)}
			continue
		}
		live = append(live, m)
	}
	if len(live) == 0 {
		return p.runSingle(ctx, g.s, w, args)
	}
	return p.runMerged(g.s, append([]*waiter{w}, live...))
}

// rowInput returns the tensor of a mergeable argument list — exactly one
// tensor of rank >= 1, whose leading dimension is the request's row
// count — or nil.
func rowInput(args []vm.Object) *tensor.Tensor {
	if len(args) != 1 {
		return nil
	}
	if t, ok := args[0].(*vm.TensorObj); ok && t.T != nil && t.T.Rank() >= 1 {
		return t.T
	}
	return nil
}

// runSingle runs one request on s and releases s. Release via defer: a
// panic outside the session's own recovery must not leak the session.
func (p *Pool) runSingle(ctx context.Context, s *Session, w *waiter, args []vm.Object) (vm.Object, error) {
	defer p.Release(s)
	if w.in != nil {
		p.rows[w.entry].singles.Add(1)
	}
	out, err := s.Invoke(ctx, w.entry, args...)
	p.Note(err)
	return out, err
}

// runMerged serves group (leader first) with one invocation over the
// concatenated rows, answers the mates, releases s, and returns the
// leader's slice. It runs under the background context: one member's
// cancellation must not fail its batch-mates. A merged run that fails, or
// whose output does not map rows to rows, falls back to one run per
// request.
//
// vet:no-ctx — every send fills a single-slot buffer a mate owns.
func (p *Pool) runMerged(s *Session, group []*waiter) (vm.Object, error) {
	entry := group[0].entry
	ins := make([]*tensor.Tensor, len(group))
	rows := 0
	for i, m := range group {
		ins[i] = m.in
		rows += m.in.Shape()[0]
	}
	out, err := s.Invoke(context.Background(), entry, vm.NewTensorObj(kernels.Concat(ins, 0)))
	p.Note(err)
	t, ok := out.(*vm.TensorObj)
	if err == nil && (!ok || t.T.Rank() == 0 || t.T.Shape()[0] != rows) {
		err = fmt.Errorf("serve: entry %q returned %v for %d merged rows; not row-separable", entry, out, rows)
	}
	stats := p.rows[entry]
	if err != nil {
		stats.fallbacks.Add(int64(len(group)))
		return p.runEach(s, group)
	}
	p.Release(s)
	stats.batches.Add(1)
	stats.coalesced.Add(int64(len(group)))
	for {
		l := stats.largest.Load()
		if int64(len(group)) <= l || stats.largest.CompareAndSwap(l, int64(len(group))) {
			break
		}
	}
	lo := 0
	var lead vm.Object
	for i, m := range group {
		hi := lo + m.in.Shape()[0]
		piece := vm.NewTensorObj(kernels.Slice(t.T, 0, lo, hi))
		lo = hi
		if i == 0 {
			lead = piece
			continue
		}
		m.ch <- grant{out: piece}
	}
	return lead, nil
}

// runEach is the per-request fallback after a failed merged run: each
// member runs alone under its own context on s (a fresh session whenever
// a run poisons it), then s is released.
//
// vet:no-ctx — every send fills a single-slot buffer a mate owns.
func (p *Pool) runEach(s *Session, group []*waiter) (vm.Object, error) {
	var lead vm.Object
	var leadErr error
	for i, m := range group {
		if s.poisoned {
			s = p.quarantine(s)
		}
		if err := m.ctx.Err(); i > 0 && err != nil {
			m.ch <- grant{err: Canceled(err)}
			continue // withdrawn mid-dispatch: don't pay a re-run nobody reads
		}
		out, err := s.Invoke(m.ctx, m.entry, vm.NewTensorObj(m.in))
		p.Note(err)
		if i == 0 {
			lead, leadErr = out, err
			continue
		}
		m.ch <- grant{out: out, err: err}
	}
	p.Release(s)
	return lead, leadErr
}

func (p *Pool) Note(err error) {
	p.invocations.Add(1)
	// Client-initiated cancellations are not execution failures; counting
	// them would let request deadlines inflate the pool's error rate.
	if err != nil && !errors.Is(err, ErrCanceled) {
		p.errors.Add(1)
	}
}

// Close marks the pool closed; parked and future requests fail with
// ErrClosed. Sessions already checked out may finish and Release normally,
// and a merged dispatch already under way still answers its mates.
//
// vet:no-ctx — the only channel operations are the wake-ups of parked
// waiters, each a send into a single-slot buffer the waiter owns; none can
// block.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	parked := p.waiters
	p.waiters = nil
	p.mu.Unlock()
	for _, w := range parked {
		w.ch <- grant{err: fmt.Errorf("serve: pool: %w", ErrClosed)}
	}
}

// Stats is a snapshot of pool counters.
type Stats struct {
	Workers     int           `json:"workers"`
	Invocations int64         `json:"invocations"`
	Errors      int64         `json:"errors"`
	InFlight    int           `json:"in_flight"`
	PeakInUse   int           `json:"peak_in_use"`
	Waits       int64         `json:"waits"`
	WaitTime    time.Duration `json:"wait_time_ns"`
	// Quarantined counts poisoned sessions (VM/kernel panics) replaced by
	// fresh VMs; the pool's size never changes when this rises.
	Quarantined int64 `json:"quarantined"`
	// PerSession lists invocation counts by session id; a steep skew
	// toward low ids is the LIFO policy working as intended.
	PerSession []int64 `json:"per_session"`
}

// Stats snapshots the pool counters.
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := Stats{
		Workers:     len(p.all),
		Invocations: p.invocations.Load(),
		Errors:      p.errors.Load(),
		InFlight:    p.inFlight,
		PeakInUse:   p.peakInUse,
		Waits:       p.waits,
		WaitTime:    p.waitTime,
		Quarantined: p.quarantined,
	}
	for _, s := range p.all {
		st.PerSession = append(st.PerSession, s.invocations.Load())
	}
	return st
}

// BatchStats is a snapshot of one row-separable entry's dispatch counters.
type BatchStats struct {
	Entry        string `json:"entry"`
	MaxBatch     int    `json:"max_batch"`
	Batches      int64  `json:"batches"`
	Singles      int64  `json:"singles"`
	Coalesced    int64  `json:"coalesced_requests"`
	Fallbacks    int64  `json:"fallback_requests"`
	Canceled     int64  `json:"canceled_requests"`
	LargestBatch int    `json:"largest_batch"`
}

// BatchStats snapshots entry's merge counters; ok is false for an entry
// not registered with MergeRows. Batches counts merged dispatches (two or
// more requests), Singles requests dispatched alone, Coalesced requests
// served by merged dispatches, Fallbacks requests re-run one by one after
// a merged run failed, and Canceled requests withdrawn while queued.
func (p *Pool) BatchStats(entry string) (st BatchStats, ok bool) {
	r, ok := p.rows[entry]
	if !ok {
		return st, false
	}
	return BatchStats{
		Entry:        entry,
		MaxBatch:     MaxMerge,
		Batches:      r.batches.Load(),
		Singles:      r.singles.Load(),
		Coalesced:    r.coalesced.Load(),
		Fallbacks:    r.fallbacks.Load(),
		Canceled:     r.canceled.Load(),
		LargestBatch: int(r.largest.Load()),
	}, true
}
