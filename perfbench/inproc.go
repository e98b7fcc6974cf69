package main

import (
	"context"
	"fmt"
	"time"

	"nimble"
	"nimble/internal/ir"
	"nimble/internal/tensor"
	"nimble/internal/vm"
)

// model is one deployed model of a workload.
type model struct {
	name   string // registry name
	entry  string
	stream bool
	// build constructs a fresh module; Compile consumes it.
	build func() *ir.Module
	// prog is the program compiled by the set-up trial that stayed up.
	prog *nimble.Program
}

// input is one pooled request with its reference output, computed at set-up
// by a bare Session.
type input struct {
	model  *model
	val    nimble.Value
	obj    func() vm.Object // the same input as a VM object, for the profiled VM
	ref    *tensor.Tensor
	tokens int   // units of work: sequence tokens, tree leaves, generated tokens, rows
	flops  int64 // model FLOPs from tensor sizes
	// body and refData are the HTTP form: the /invoke body and the
	// reference as a JSON decoder reads it back.
	body    []byte
	refData []float64
}

// workload is one traffic mix against one serving stack.
type workload interface {
	inputs() []*input
	models() []*model
	// setupTrial builds the stack from scratch and returns once every model
	// answered one request correctly; keep leaves it up for the run.
	setupTrial(ctx context.Context, keep bool) (setup, compile time.Duration, err error)
	// issue sends one request down the workload's path, stamps ev and
	// checks the output against the reference.
	issue(ctx context.Context, in *input, ev *event) error
	// snapshot reads the serving stack's counters.
	snapshot(ctx context.Context) (serveSnap, error)
	close()
}

// verbs are one ladder rung's invoke and stream calls.
type verbs struct {
	invoke func(ctx context.Context, model, entry string, args ...nimble.Value) (nimble.Value, error)
	stream func(ctx context.Context, model, entry string, args ...nimble.Value) (*nimble.Stream, error)
}

func registryVerbs(reg *nimble.Registry) verbs {
	return verbs{invoke: reg.Invoke, stream: reg.InvokeStream}
}

// invoker is the verb pair Session and Service share.
type invoker interface {
	Invoke(ctx context.Context, entry string, args ...nimble.Value) (nimble.Value, error)
	InvokeStream(ctx context.Context, entry string, args ...nimble.Value) (*nimble.Stream, error)
}

// perModel routes each call to the invoker serving its model.
func perModel[T invoker](by map[string]T) verbs {
	return verbs{
		invoke: func(ctx context.Context, m, e string, args ...nimble.Value) (nimble.Value, error) {
			return by[m].Invoke(ctx, e, args...)
		},
		stream: func(ctx context.Context, m, e string, args ...nimble.Value) (*nimble.Stream, error) {
			return by[m].InvokeStream(ctx, e, args...)
		},
	}
}

// call sends in through one rung's verbs, stamping ev and checking every
// output: a stream's tokens one by one against the reference sequence, then
// its result; an invoke's result.
func call(ctx context.Context, v verbs, in *input, ev *event) error {
	m := in.model
	ev.sent = time.Now()
	if !m.stream {
		out, err := v.invoke(ctx, m.name, m.entry, in.val)
		ev.first = time.Now()
		ev.done = ev.first
		if err != nil {
			return err
		}
		return in.check(out)
	}
	st, err := v.stream(ctx, m.name, m.entry, in.val)
	if err != nil {
		ev.first = time.Now()
		ev.done = ev.first
		return err
	}
	want := in.ref.I64()
	var bad error
	var prev time.Time
	n := 0
	for st.Next() {
		now := time.Now()
		if n == 0 {
			ev.first = now
		} else {
			ev.gaps = append(ev.gaps, now.Sub(prev))
		}
		prev = now
		if bad == nil {
			bad = checkToken(st.Value(), want, n)
		}
		n++
	}
	err = st.Close()
	ev.done = time.Now()
	if n == 0 {
		ev.first = ev.done
	}
	if err != nil {
		return err
	}
	if bad != nil {
		return bad
	}
	if n != len(want) {
		return fmt.Errorf("%w: %s streamed %d tokens, want %d", errMismatch, m.name, n, len(want))
	}
	res, err := st.Result()
	if err != nil {
		return err
	}
	return in.check(res)
}

func checkToken(v nimble.Value, want []int64, i int) error {
	t, ok := v.Tensor()
	if !ok || i >= len(want) || t.NumElements() != 1 || t.I64()[0] != want[i] {
		return fmt.Errorf("%w: token %d is %v, want %v", errMismatch, i, v, want)
	}
	return nil
}

// check compares an output with the reference bit for bit: every path
// executes the same bytecode and kernels as the reference Session.
func (in *input) check(out nimble.Value) error {
	t, ok := out.Tensor()
	if !ok || !t.Equal(in.ref) {
		return fmt.Errorf("%w: %s output %v", errMismatch, in.model.name, out)
	}
	return nil
}

// inproc is a workload served by an in-process Registry.
type inproc struct {
	ms    []*model
	ins   []*input
	first []*input // one input per model, answered at the end of set-up
	opts  []nimble.ServiceOption
	reg   *nimble.Registry
}

func (w *inproc) inputs() []*input { return w.ins }
func (w *inproc) models() []*model { return w.ms }

func (w *inproc) setupTrial(ctx context.Context, keep bool) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	reg := nimble.NewRegistry(nimble.WithServeDefaults(w.opts...))
	var compile time.Duration
	progs := make([]*nimble.Program, len(w.ms))
	for i, m := range w.ms {
		mod := m.build()
		c0 := time.Now()
		p, err := nimble.Compile(mod)
		compile += time.Since(c0)
		if err != nil {
			reg.Close()
			return 0, 0, fmt.Errorf("compile %s: %w", m.name, err)
		}
		if _, err := reg.Deploy(m.name, p); err != nil {
			reg.Close()
			return 0, 0, fmt.Errorf("deploy %s: %w", m.name, err)
		}
		progs[i] = p
	}
	for _, in := range w.first {
		if err := call(ctx, registryVerbs(reg), in, &event{}); err != nil {
			reg.Close()
			return 0, 0, fmt.Errorf("first %s request: %w", in.model.name, err)
		}
	}
	setup := time.Since(t0)
	if !keep {
		reg.Close()
		return setup, compile, nil
	}
	if w.reg != nil {
		w.reg.Close()
	}
	w.reg = reg
	for i, m := range w.ms {
		m.prog = progs[i]
	}
	return setup, compile, nil
}

func (w *inproc) issue(ctx context.Context, in *input, ev *event) error {
	return call(ctx, registryVerbs(w.reg), in, ev)
}

func (w *inproc) snapshot(context.Context) (serveSnap, error) {
	return registrySnap(w.reg), nil
}

func (w *inproc) close() {
	if w.reg != nil {
		w.reg.Close()
	}
}

// references computes every input's reference output with a bare Session
// over a separately compiled program, outside any timed region.
func references(ctx context.Context, ms []*model, ins []*input) error {
	sessions := map[*model]*nimble.Session{}
	for _, m := range ms {
		p, err := nimble.Compile(m.build())
		if err != nil {
			return fmt.Errorf("compile %s reference: %w", m.name, err)
		}
		sessions[m] = p.NewSession()
	}
	for _, in := range ins {
		out, err := sessions[in.model].Invoke(ctx, in.model.entry, in.val)
		if err != nil {
			return fmt.Errorf("%s reference: %w", in.model.name, err)
		}
		t, ok := out.Tensor()
		if !ok {
			return fmt.Errorf("%s reference is %s, not a tensor", in.model.name, out.Kind())
		}
		in.ref = t
	}
	return nil
}
