package serve

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"nimble/internal/compiler"
	"nimble/internal/ir"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// invoke runs one tensor request for "main" through the pool.
func invoke(p *Pool, in *tensor.Tensor) (*tensor.Tensor, error) {
	out, err := p.Invoke(context.Background(), "main", vm.NewTensorObj(in))
	if err != nil {
		return nil, err
	}
	return out.(*vm.TensorObj).T, nil
}

// heldPool builds a one-session pool with "main" registered for merging
// and checks its only session out, so requests queue until the test
// releases it.
func heldPool(t *testing.T, res *compiler.Result) (*Pool, *Session) {
	t.Helper()
	p, err := NewPool(res.Exe, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.MergeRows("main")
	held, err := p.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return p, held
}

// waitParked blocks until n requests have parked in the pool's queue.
func waitParked(t *testing.T, p *Pool, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for p.Stats().Waits < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests parked", p.Stats().Waits, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// result is one queued request's answer.
type result struct {
	out *tensor.Tensor
	err error
}

// enqueue starts one request per input, each parking before the next is
// sent, so queue order is submission order.
func enqueue(t *testing.T, p *Pool, inputs []*tensor.Tensor) []chan result {
	t.Helper()
	chans := make([]chan result, len(inputs))
	base := p.Stats().Waits
	for i, in := range inputs {
		chans[i] = make(chan result, 1)
		go func(in *tensor.Tensor, ch chan result) {
			out, err := invoke(p, in)
			ch <- result{out, err}
		}(in, chans[i])
		waitParked(t, p, base+int64(i)+1)
	}
	return chans
}

// compileRelu compiles main(x: f32[?, ?]) = relu(x): row-separable and
// accepting any trailing width, so ragged requests run instead of failing.
func compileRelu(t *testing.T) *compiler.Result {
	t.Helper()
	x := ir.NewVar("x", ir.TT(tensor.Float32, ir.DimAny, ir.DimAny))
	b := ir.NewBuilder()
	mod := ir.NewModule()
	mod.AddFunc("main", ir.NewFunc([]*ir.Var{x}, b.Finish(b.Op("relu", x)), nil))
	res, err := compiler.Compile(mod, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestPoolMergeCount: with the only session held, k compatible requests
// and one ragged one queue up; the release runs exactly one merged
// dispatch of k and one single.
func TestPoolMergeCount(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(3))
	p, held := heldPool(t, compileRelu(t))
	inputs := make([]*tensor.Tensor, k+1)
	for i := 0; i < k; i++ {
		inputs[i] = tensor.Random(rng, 1, 1+i%3, 4)
	}
	inputs[k] = tensor.Random(rng, 1, 2, 5) // ragged: trailing width 5, not 4
	chans := enqueue(t, p, inputs)
	p.Release(held)
	for i, ch := range chans {
		r := <-ch
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if !r.out.Shape().Equal(inputs[i].Shape()) {
			t.Errorf("request %d: shape %v, want %v", i, r.out.Shape(), inputs[i].Shape())
		}
	}
	st, _ := p.BatchStats("main")
	if st.Batches != 1 || st.Coalesced != k || st.LargestBatch != k || st.Singles != 1 {
		t.Errorf("stats %+v: want 1 merged dispatch of %d and 1 single", st, k)
	}
}

// TestPoolIdleRunsSingles: on an idle pool every request runs at once on
// its caller's goroutine — no waiting, no merging.
func TestPoolIdleRunsSingles(t *testing.T) {
	const n = 10
	p, err := NewPool(compileRelu(t).Exe, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.MergeRows("main")
	in := tensor.Random(rand.New(rand.NewSource(4)), 1, 2, 4)
	for i := 0; i < n; i++ {
		if _, err := invoke(p, in); err != nil {
			t.Fatal(err)
		}
	}
	st, _ := p.BatchStats("main")
	if st.Singles != n || st.Batches != 0 || p.Stats().Waits != 0 {
		t.Errorf("stats %+v (waits %d): want %d singles, no batches, no waits", st, p.Stats().Waits, n)
	}
}

// TestPoolMergeOrder: the waiter queue orders by (lane, deadline,
// arrival); a lane-0 request parked last is served first.
func TestPoolMergeOrder(t *testing.T) {
	res := compileRelu(t)
	p, err := NewPool(res.Exe, 1)
	if err != nil {
		t.Fatal(err)
	}
	held, _ := p.Acquire(context.Background())
	served := make(chan int, 3)
	submit := func(id, lane int, budget time.Duration) {
		ctx, cancel := context.WithTimeout(context.Background(), budget)
		go func() {
			defer cancel()
			s, err := p.checkout(&waiter{order: order{lane: lane}, ctx: ctx})
			if err != nil {
				t.Error(err)
				return
			}
			served <- id
			p.Release(s.s)
		}()
	}
	submit(0, 1, time.Minute)
	waitParked(t, p, 1)
	submit(1, 0, time.Hour)
	waitParked(t, p, 2)
	submit(2, 0, time.Minute) // same lane, earlier deadline
	waitParked(t, p, 3)
	p.Release(held)
	for _, want := range []int{2, 1, 0} {
		if got := <-served; got != want {
			t.Fatalf("served %d, want %d (lane, then deadline, then arrival)", got, want)
		}
	}
}

func TestBatcherMatchesPerRequest(t *testing.T) {
	m, res := compileMLP(t)
	rng := rand.New(rand.NewSource(11))
	const n = 32
	inputs := make([]*tensor.Tensor, n)
	want := make([]*tensor.Tensor, n)
	ref, err := NewPool(res.Exe, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inputs {
		inputs[i] = m.RandomBatch(rng, 1+i%3)
		if want[i], err = invoke(ref, inputs[i]); err != nil {
			t.Fatal(err)
		}
	}
	p, held := heldPool(t, res)
	chans := enqueue(t, p, inputs)
	p.Release(held)
	for i, ch := range chans {
		r := <-ch
		if r.err != nil {
			t.Fatalf("request %d: %v", i, r.err)
		}
		if !r.out.Shape().Equal(want[i].Shape()) {
			t.Fatalf("request %d: shape %v, want %v", i, r.out.Shape(), want[i].Shape())
		}
		if !r.out.AllClose(want[i], 1e-5, 1e-6) {
			t.Errorf("request %d: merged output differs from per-request output", i)
		}
	}
	st, _ := p.BatchStats("main")
	if st.Coalesced != n || st.Batches != (n+MaxMerge-1)/MaxMerge {
		t.Errorf("stats %+v: want %d requests in %d merged dispatches", st, n, (n+MaxMerge-1)/MaxMerge)
	}
	if st.Fallbacks != 0 {
		t.Errorf("row-separable entry fell back %d times", st.Fallbacks)
	}
	if st.LargestBatch != MaxMerge {
		t.Errorf("largest batch %d, want the cap %d", st.LargestBatch, MaxMerge)
	}
}

func TestBatcherRaggedInputsStayPadFree(t *testing.T) {
	// Requests whose trailing dims disagree must not be concatenated (that
	// would require padding); the leader takes only its compatible mates,
	// in queue order, and the rest keep their places.
	ws := []*waiter{
		{entry: "main", in: tensor.New(tensor.Float32, 2, 16)},
		{entry: "main", in: tensor.New(tensor.Float32, 1, 16)},
		{entry: "main", in: tensor.New(tensor.Float32, 2, 8)},
		{entry: "main", in: tensor.New(tensor.Float32, 3, 16)},
		{entry: "main", in: tensor.New(tensor.Int64, 2, 16)},
		{entry: "other", in: tensor.New(tensor.Float32, 2, 16)},
		{entry: "main"}, // not mergeable: a plain checkout
	}
	p := &Pool{waiters: append([]*waiter(nil), ws[1:]...)}
	mates := p.takeMatesLocked(ws[0])
	if len(mates) != 2 || mates[0] != ws[1] || mates[1] != ws[3] {
		t.Fatalf("mates = %v, want the two f32 [·,16] requests of main in arrival order", mates)
	}
	rest := []*waiter{ws[2], ws[4], ws[5], ws[6]}
	if len(p.waiters) != len(rest) {
		t.Fatalf("%d waiters left, want %d", len(p.waiters), len(rest))
	}
	for i := range rest {
		if p.waiters[i] != rest[i] {
			t.Errorf("queue position %d changed", i)
		}
	}
}

func TestBatcherRejectsScalar(t *testing.T) {
	// Only a single rank>=1 tensor can be split back apart by rows.
	for name, args := range map[string][]vm.Object{
		"scalar":  {vm.NewTensorObj(tensor.Scalar(1))},
		"nil":     {vm.NewTensorObj(nil)},
		"two":     {vm.NewTensorObj(tensor.New(tensor.Float32, 1, 4)), vm.NewTensorObj(tensor.New(tensor.Float32, 1, 4))},
		"adt":     {&vm.ADT{}},
		"no args": nil,
	} {
		if rowInput(args) != nil {
			t.Errorf("%s: accepted for merging", name)
		}
	}
	if rowInput([]vm.Object{vm.NewTensorObj(tensor.New(tensor.Float32, 3))}) == nil {
		t.Error("rank-1 tensor refused for merging")
	}
}

func TestBatcherClose(t *testing.T) {
	p, err := NewPool(compileRelu(t).Exe, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.MergeRows("main")
	in := tensor.Random(rand.New(rand.NewSource(2)), 1, 1, 4)
	if _, err := invoke(p, in); err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := invoke(p, in); !errors.Is(err, ErrClosed) {
		t.Errorf("invoke on closed pool: %v, want ErrClosed", err)
	}
}

func TestBatcherConvertsKernelPanicToError(t *testing.T) {
	// A kernel panic inside a merged run must not kill the process or
	// wedge the pool: the merged run panics, the per-request fallback
	// panics again, every member gets ErrInternal, and each poisoned
	// session is quarantined.
	m, res, ctl := compileMLPWithBomb(t)
	p, held := heldPool(t, res)
	rng := rand.New(rand.NewSource(4))
	reqs := []*tensor.Tensor{m.RandomBatch(rng, 1), m.RandomBatch(rng, 2), m.RandomBatch(rng, 1)}
	chans := enqueue(t, p, reqs)
	ctl.arm(true)
	p.Release(held)
	for i, ch := range chans {
		if r := <-ch; !errors.Is(r.err, ErrInternal) {
			t.Errorf("request %d: %v, want ErrInternal", i, r.err)
		}
	}
	ctl.arm(false)
	st, _ := p.BatchStats("main")
	if st.Fallbacks != int64(len(reqs)) {
		t.Errorf("Fallbacks = %d, want %d", st.Fallbacks, len(reqs))
	}
	// The pool keeps serving afterwards.
	if _, err := invoke(p, reqs[0]); err != nil {
		t.Fatalf("pool wedged after panic: %v", err)
	}
	if st := p.Stats(); st.InFlight != 0 || st.Quarantined != int64(len(reqs))+1 {
		t.Errorf("stats %+v: want no session out and %d quarantined", st, len(reqs)+1)
	}
}

func TestBatcherCloseAnswersAcceptedRequests(t *testing.T) {
	// Close never strands a queued request: those a leader already took
	// are answered with results, those still parked with ErrClosed.
	m, res := compileMLP(t)
	in := m.RandomBatch(rand.New(rand.NewSource(8)), 1)
	const n = 6
	inputs := make([]*tensor.Tensor, n)
	for i := range inputs {
		inputs[i] = in
	}
	for _, taken := range []bool{true, false} {
		p, held := heldPool(t, res)
		chans := enqueue(t, p, inputs)
		if taken {
			p.Release(held) // the leader takes every parked request
		}
		p.Close()
		for i, ch := range chans {
			select {
			case r := <-ch:
				if taken && r.err != nil {
					t.Errorf("request %d taken before Close failed: %v", i, r.err)
				}
				if !taken && !errors.Is(r.err, ErrClosed) {
					t.Errorf("request %d parked at Close: %v, want ErrClosed", i, r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("request stranded by Close")
			}
		}
		if !taken {
			p.Release(held)
		}
	}
}

// TestPoolPassSkipsCanceledMates: a leader canceled as its session
// arrives hands the session to its first live mate, which then leads the
// rest; canceled mates are answered with ErrCanceled, never a session.
func TestPoolPassSkipsCanceledMates(t *testing.T) {
	p, err := NewPool(compileRelu(t).Exe, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.MergeRows("main")
	s, _ := p.Acquire(context.Background())
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	mk := func(ctx context.Context) *waiter {
		return &waiter{ctx: ctx, entry: "main", ch: make(chan grant, 1)}
	}
	mates := []*waiter{mk(dead), mk(context.Background()), mk(context.Background())}
	p.pass(s, mates)
	if g := <-mates[0].ch; g.s != nil || !errors.Is(g.err, ErrCanceled) {
		t.Errorf("canceled mate got %+v, want ErrCanceled", g)
	}
	g := <-mates[1].ch
	if g.s != s || len(g.mates) != 1 || g.mates[0] != mates[2] || !mates[1].leader {
		t.Fatalf("first live mate got %+v, want the session and the remaining mate", g)
	}
	p.Release(g.s)
	if st := p.Stats(); st.InFlight != 0 {
		t.Errorf("session leaked: %+v", st)
	}
}
