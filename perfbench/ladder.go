package main

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"nimble"
	"nimble/internal/compiler"
	"nimble/internal/vm"
)

const (
	// ladderSize is how many seeded inputs the ladder replays, split evenly
	// over the workload's models; ladderReps how often each input crosses
	// every rung (the per-rung figure is the median).
	ladderSize = 24
	ladderReps = 5
	// probeReps repeats the two fixed MLP requests of the HTTP probe;
	// probeBytes is how many pooled MLP requests the byte count averages.
	probeReps  = 15
	probeBytes = 64
	// idleDeploys is how many hot-swaps the probe times at idle.
	idleDeploys = 5
)

// rung is one level of the ladder: the same request sent through one more
// layer than the rung below.
type rung struct {
	name string
	do   func(ctx context.Context, in *input, ev *event) error
}

// tracedWorkload records a generator span tree for every other request it
// issues, so traced and untraced requests share one run's conditions.
type tracedWorkload struct {
	workload
	tr *tracer
	n  atomic.Int64
}

func (t *tracedWorkload) issue(ctx context.Context, in *input, ev *event) error {
	ev.traced = t.n.Add(1)%2 == 0
	err := t.workload.issue(ctx, in, ev)
	if ev.traced {
		t.tr.event(ev)
	}
	return err
}

// traced measures the layers of one workload; see the package comment.
func traced(ctx context.Context, cfg config, sp spec, w workload, compileMS float64, all *counts, out io.Writer) (*result, error) {
	tr := newTracer()
	vals := map[string]float64{"compiler.compile_ms": compileMS}
	for _, m := range w.models() {
		st := m.prog.Stats()
		vals["compiler.instructions"] += float64(st.Instructions)
		vals["compiler.kernels"] += float64(st.Kernels)
		vals["compiler.fused_ops"] += float64(st.FusedOps)
		vals["compiler.storages_after"] += float64(st.StoragesAfter)
	}

	warm := closedLoop(ctx, w, sp.callers(cfg.nproc), warmup, cfg.seed+11)
	report(out, "warmup", tally(warm), nil)
	all.merge(tally(warm))

	// The ladder at idle: one caller, one request at a time.
	sample := ladderSample(w, cfg.seed+19)
	rungs, closeRungs, err := buildRungs(cfg, w)
	if err != nil {
		return nil, err
	}
	defer closeRungs()
	first, done, lc := runLadder(ctx, tr, rungs, sample, ladderReps)
	report(out, "ladder", lc, nil)
	all.merge(lc)
	var sessionUS, tokens float64
	var serveOver, regOver []float64
	for i, in := range sample {
		sessionUS += done[0][i]
		tokens += float64(in.tokens)
		serveOver = append(serveOver, first[1][i]-first[0][i])
		regOver = append(regOver, first[2][i]-first[1][i])
	}
	vals["vm.invoke_us"] = sessionUS / float64(len(sample))
	vals["vm.step_us"] = sessionUS / tokens
	vals["serve.invoke_overhead_us"] = mean(serveOver)
	vals["registry.invoke_overhead_us"] = mean(regOver)
	printLadder(out, rungs, sample, done)

	allocs := make([]float64, 3)
	for r := range allocs {
		if allocs[r], err = allocsPerCall(ctx, rungs[r], sample); err != nil {
			return nil, err
		}
	}
	vals["vm.heap_allocs_per_request"] = allocs[0]
	vals["registry.heap_allocs_per_request"] = allocs[2] - allocs[1]

	prof, err := profileSample(w, sample)
	if err != nil {
		return nil, err
	}
	prof.into(vals, out)

	if err := loadedRun(ctx, cfg, sp, w, tr, vals, all, out); err != nil {
		return nil, err
	}
	if err := serveProbe(ctx, cfg, w, tr, vals, all, out); err != nil {
		return nil, err
	}

	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", sp.name, cfg.seed))
	if err := tr.write(path); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	for _, d := range perLayer {
		fmt.Fprintf(out, "layer map %-40s -> %s\n", d.name, d.moves)
	}
	return finish(out, perLayer, vals, *all)
}

// ladderSample draws the fixed seeded sample the ladder replays: the same
// number of inputs from each of the workload's models.
func ladderSample(w workload, seed int64) []*input {
	rng := rand.New(rand.NewSource(seed))
	per := ladderSize / len(w.models())
	var out []*input
	for _, m := range w.models() {
		var ins []*input
		for _, in := range w.inputs() {
			if in.model == m {
				ins = append(ins, in)
			}
		}
		for _, i := range rng.Perm(len(ins))[:min(per, len(ins))] {
			out = append(out, ins[i])
		}
	}
	return out
}

// buildRungs stands up a Session and a Service per model next to the
// workload's Registry; an HTTP workload adds its own in-process Registry
// and the HTTP rung.
func buildRungs(cfg config, w workload) ([]rung, func(), error) {
	sessions := map[string]*nimble.Session{}
	services := map[string]*nimble.Service{}
	var closers []func()
	cleanup := func() {
		for _, c := range closers {
			c()
		}
	}
	for _, m := range w.models() {
		sessions[m.name] = m.prog.NewSession()
		svc, err := m.prog.Serve(serveOptions(cfg.nproc)...)
		if err != nil {
			cleanup()
			return nil, nil, err
		}
		services[m.name] = svc
		closers = append(closers, svc.Close)
	}
	var reg *nimble.Registry
	switch x := w.(type) {
	case *inproc:
		reg = x.reg
	case *httpMLP:
		reg = nimble.NewRegistry(nimble.WithServeDefaults(serveOptions(cfg.nproc)...))
		closers = append(closers, reg.Close)
		if _, err := reg.Deploy(x.m.name, x.m.prog); err != nil {
			cleanup()
			return nil, nil, err
		}
	}
	rungs := []rung{verbRung("session", perModel(sessions)), verbRung("service", perModel(services)), verbRung("registry", registryVerbs(reg))}
	if hw, ok := w.(*httpMLP); ok {
		rungs = append(rungs, rung{"http", func(ctx context.Context, in *input, ev *event) error {
			return hw.post(ctx, hw.child.base, in, ev, nil)
		}})
	}
	return rungs, cleanup, nil
}

func verbRung(name string, v verbs) rung {
	return rung{name, func(ctx context.Context, in *input, ev *event) error { return call(ctx, v, in, ev) }}
}

// runLadder sends every sample input down every rung, reps times, and
// returns per rung and input the median time to the first output and to
// the end, in µs. Each crossing is one traced request: a root span with one
// child per rung, and under it the wait for the first output.
func runLadder(ctx context.Context, tr *tracer, rungs []rung, sample []*input, reps int) (first, done [][]float64, c counts) {
	firsts := make([][][]float64, len(rungs))
	dones := make([][][]float64, len(rungs))
	for r := range rungs {
		firsts[r] = make([][]float64, len(sample))
		dones[r] = make([][]float64, len(sample))
	}
	evs := make([]event, len(rungs))
	for rep := 0; rep < reps; rep++ {
		for i, in := range sample {
			// An untimed call first, so no rung pays for bringing the
			// input's model into the caches.
			c.add(rungs[0].do(ctx, in, &event{}))
			for r, rg := range rungs {
				evs[r] = event{in: in}
				err := rg.do(ctx, in, &evs[r])
				c.add(err)
				firsts[r][i] = append(firsts[r][i], float64(evs[r].first.Sub(evs[r].sent))/1e3)
				dones[r][i] = append(dones[r][i], float64(evs[r].done.Sub(evs[r].sent))/1e3)
			}
			req := tr.request()
			root := tr.add(req, 0, "ladder."+in.model.name, evs[0].sent, evs[len(rungs)-1].done)
			for r, rg := range rungs {
				id := tr.add(req, root, rg.name, evs[r].sent, evs[r].done)
				tr.add(req, id, rg.name+".first_output", evs[r].sent, evs[r].first)
			}
		}
	}
	first = make([][]float64, len(rungs))
	done = make([][]float64, len(rungs))
	for r := range rungs {
		for i := range sample {
			first[r] = append(first[r], median(firsts[r][i]))
			done[r] = append(done[r], median(dones[r][i]))
		}
	}
	return first, done, c
}

// printLadder reports each model's mean time per rung and each layer's self
// time: its rung minus the rung below.
func printLadder(out io.Writer, rungs []rung, sample []*input, done [][]float64) {
	byModel := map[string][]int{}
	for i, in := range sample {
		byModel[in.model.name] = append(byModel[in.model.name], i)
	}
	for _, name := range slices.Sorted(maps.Keys(byModel)) {
		fmt.Fprintf(out, "ladder %-9s", name)
		prev := 0.0
		for r, rg := range rungs {
			var xs []float64
			for _, i := range byModel[name] {
				xs = append(xs, done[r][i])
			}
			m := mean(xs)
			fmt.Fprintf(out, "  %s %.1f us (self %+.1f)", rg.name, m, m-prev)
			prev = m
		}
		fmt.Fprintln(out)
	}
}

// allocsPerCall counts heap allocations per request through one rung.
func allocsPerCall(ctx context.Context, rg rung, sample []*input) (float64, error) {
	evs := make([]event, len(sample))
	for i := range evs {
		evs[i].gaps = make([]time.Duration, 0, 64)
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i, in := range sample {
		if err := rg.do(ctx, in, &evs[i]); err != nil {
			return 0, fmt.Errorf("%s rung: %w", rg.name, err)
		}
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(len(sample)), nil
}

// vmProfile is the profiled VM's account of the sample.
type vmProfile struct {
	requests          int
	instrs            int64
	kernelTime, other time.Duration
	fresh, reused     int64
	flops             int64
	calls             map[string]int64 // by model/kernel
	times             map[string]time.Duration
}

// profileSample runs the sample on a freshly compiled, profiled VM per
// model, after one unprofiled pass has warmed its storage pool, and checks
// each output against the reference.
func profileSample(w workload, sample []*input) (*vmProfile, error) {
	p := &vmProfile{calls: map[string]int64{}, times: map[string]time.Duration{}}
	for _, m := range w.models() {
		machine, _, err := compiler.CompileToVM(m.build(), compiler.Options{})
		if err != nil {
			return nil, err
		}
		var ins []*input
		for _, in := range sample {
			if in.model == m {
				ins = append(ins, in)
			}
		}
		for _, in := range ins {
			if _, err := machine.Invoke(m.entry, in.obj()); err != nil {
				return nil, err
			}
		}
		prof := vm.NewProfiler()
		machine.SetProfiler(prof)
		for _, in := range ins {
			out, err := machine.Invoke(m.entry, in.obj())
			if err != nil {
				return nil, err
			}
			if t, ok := out.(*vm.TensorObj); !ok || !t.T.Equal(in.ref) {
				return nil, fmt.Errorf("%w: profiled %s output", errMismatch, m.name)
			}
			p.flops += in.flops
		}
		p.requests += len(ins)
		p.instrs += prof.TotalInstrs()
		p.kernelTime += prof.KernelTime
		p.other += prof.OtherTime
		p.fresh += prof.AllocFresh
		p.reused += prof.AllocReuses
		for k, n := range prof.KernelCounts {
			p.calls[m.name+"/"+k] += n
			p.times[m.name+"/"+k] += prof.KernelTimes[k]
		}
	}
	return p, nil
}

// into derives the vm and kernels metrics.
func (p *vmProfile) into(vals map[string]float64, out io.Writer) {
	n := float64(p.requests)
	var calls int64
	names := make([]string, 0, len(p.calls))
	for k, c := range p.calls {
		calls += c
		names = append(names, k)
	}
	sort.Slice(names, func(i, j int) bool {
		if p.times[names[i]] != p.times[names[j]] {
			return p.times[names[i]] > p.times[names[j]]
		}
		return names[i] < names[j]
	})
	vals["vm.instructions_per_request"] = float64(p.instrs) / n
	vals["vm.pool_reuse_ratio"] = float64(p.reused) / float64(p.fresh+p.reused)
	vals["kernels.time_share"] = p.kernelTime.Seconds() / (p.kernelTime + p.other).Seconds()
	vals["kernels.calls_per_request"] = float64(calls) / n
	vals["kernels.mflop_per_request"] = float64(p.flops) / n / 1e6
	vals["kernels.gflops"] = float64(p.flops) / p.kernelTime.Seconds() / 1e9
	for i, k := range names {
		if i == 3 {
			break
		}
		us := float64(p.times[k]) / 1e3 / float64(p.calls[k])
		vals[fmt.Sprintf("kernels.top%d_us", i+1)] = us
		fmt.Fprintf(out, "kernel top%d %s: %d calls/request, %.2f us/call, %.1f%% of kernel time\n",
			i+1, k, p.calls[k]/int64(p.requests), us, 100*p.times[k].Seconds()/p.kernelTime.Seconds())
	}
	fmt.Fprintf(out, "kernels: %.3f MFLOP/request (matmul FLOPs computed from tensor sizes), %.2f GFLOP/s over kernel time\n",
		vals["kernels.mflop_per_request"], vals["kernels.gflops"])
}

// loadedRun offers the workload's open-loop load for half the run's
// seconds, with generator spans on
// every other request, while reading the serving counters, and derives the
// serve and registry metrics and the tracing overhead.
func loadedRun(ctx context.Context, cfg config, sp spec, w workload, tr *tracer, vals map[string]float64, all *counts, out io.Writer) error {
	var mu sync.Mutex
	acc := &snapAcc{}
	var snapErr error
	snap := func() {
		mu.Lock()
		defer mu.Unlock()
		s, err := w.snapshot(ctx)
		if err != nil {
			snapErr = err
			return
		}
		acc.add(s)
	}
	snap()
	period := 100 * time.Millisecond
	stopDeploys := func() {}
	if hw, ok := w.(*httpMLP); ok {
		period = 250 * time.Millisecond
		stopDeploys = hw.startDeploys(ctx, snap)
	}
	quit, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				snap()
			}
		}
	}()
	rng := rand.New(rand.NewSource(cfg.seed + 13))
	evs := openLoop(ctx, &tracedWorkload{workload: w, tr: tr}, sp.rate, time.Duration(cfg.seconds)*time.Second/2, rng, newPicker(w.inputs(), rng))
	stopDeploys()
	close(quit)
	<-stopped
	snap()
	if snapErr != nil {
		return fmt.Errorf("reading serving counters: %w", snapErr)
	}
	var plain, withSpans []*event
	for _, ev := range evs {
		if ev.traced {
			withSpans = append(withSpans, ev)
		} else {
			plain = append(plain, ev)
		}
	}
	lc := tally(evs)
	report(out, fmt.Sprintf("loaded (poisson %.0f/s, every other request traced)", sp.rate), lc, summarizeOpen(evs).lateness)
	all.merge(lc)
	if hw, ok := w.(*httpMLP); ok {
		hw.mu.Lock()
		report(out, "deploys", hw.deployN, nil)
		all.merge(hw.deployN)
		hw.deployN = counts{}
		hw.mu.Unlock()
	}

	d := acc.delta()
	vals["serve.pool_wait_us"] = float64(d.poolWait) / 1e3 / float64(lc.Succeeded)
	if d.dispatches > 0 {
		vals["serve.batch_size_mean"] = float64(d.batched) / float64(d.dispatches)
	} else {
		vals["serve.batch_size_mean"] = 0
	}
	vals["serve.shed"] = float64(d.shed)
	vals["serve.sched_occupancy_mean"] = 0
	if len(acc.occ) > 0 {
		vals["serve.sched_occupancy_mean"] = mean(acc.occ)
	}
	vals["serve.step_ewma_us"] = median(acc.step)
	vals["registry.shared_pool_hit_ratio"] = acc.sharedHitRatio()

	p50 := func(evs []*event) float64 { return quantile(summarizeOpen(evs).latency, 0.5) }
	untraced, withTrace := p50(plain), p50(withSpans)
	vals["trace.latency_p50_ms"] = withTrace
	vals["trace.overhead_pct"] = 100 * (withTrace - untraced) / untraced
	fmt.Fprintf(out, "tracing: latency p50 %.3f ms traced vs %.3f ms untraced, alternate requests of one run\n", withTrace, untraced)
	return nil
}

// serveProbe measures the nimble-serve layer on fixed MLP requests — HTTP
// against an in-process Registry over the same program, at 1 and 256 rows
// — its bytes per request, and idle hot-swap deploys. An MLP child is
// started for workloads that do not already run one.
func serveProbe(ctx context.Context, cfg config, w workload, tr *tracer, vals map[string]float64, all *counts, out io.Writer) error {
	hw, ok := w.(*httpMLP)
	if !ok {
		var err error
		if hw, err = newMLPHTTP(ctx, cfg); err != nil {
			return err
		}
		defer hw.close()
		if _, _, err := hw.setupTrial(ctx, true); err != nil {
			return fmt.Errorf("probe child: %w", err)
		}
		all.Sent++
		all.Succeeded++
	}
	reg := nimble.NewRegistry(nimble.WithServeDefaults(serveOptions(cfg.nproc)...))
	defer reg.Close()
	if _, err := reg.Deploy(hw.m.name, hw.m.prog); err != nil {
		return err
	}
	rungs := []rung{verbRung("registry", registryVerbs(reg)), {"http", func(ctx context.Context, in *input, ev *event) error {
		return hw.post(ctx, hw.child.base, in, ev, nil)
	}}}
	_, done, c := runLadder(ctx, tr, rungs, hw.probe, probeReps)
	report(out, "http probe", c, nil)
	all.merge(c)
	vals["nimble-serve.invoke_overhead_us"] = done[1][0] - done[0][0]
	vals["nimble-serve.invoke_overhead_256rows_us"] = done[1][1] - done[0][1]

	var bytes int
	for _, in := range hw.ins[:probeBytes] {
		var n int
		err := hw.post(ctx, hw.child.base, in, &event{}, &n)
		all.add(err)
		if err != nil {
			return fmt.Errorf("byte count request: %w", err)
		}
		bytes += n
	}
	vals["nimble-serve.bytes_per_request"] = float64(bytes) / probeBytes

	var deploys []float64
	for i := 0; i < idleDeploys; i++ {
		d, err := hw.deploy(ctx)
		all.add(err)
		if err != nil {
			return err
		}
		deploys = append(deploys, float64(d)/1e6)
	}
	vals["nimble-serve.deploy_ms"] = median(deploys)
	fmt.Fprintf(out, "http probe: 1 row %.1f us vs registry %.1f us; 256 rows %.1f us vs %.1f us; idle deploys %v ms\n",
		done[1][0], done[0][0], done[1][1], done[0][1], fmtList(deploys, 2))
	return nil
}
