package main

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"nimble"
)

// errMismatch marks a response that differs from the set-up reference.
var errMismatch = errors.New("output differs from the reference")

// errShed marks a request the server refused for overload over HTTP (429);
// in-process refusals carry nimble.ErrOverloaded.
var errShed = errors.New("shed by the server")

// event is one request's life: when it was due, when the generator sent it,
// when its first output arrived (the first token of a stream, the whole
// response otherwise) and when it finished.
type event struct {
	in                     *input
	due, sent, first, done time.Time
	// gaps are the intervals between consecutive tokens of a stream.
	gaps []time.Duration
	err  error
	// traced marks the requests a traced run recorded spans for.
	traced bool
}

// counts tallies requests by outcome.
type counts struct {
	Sent, Succeeded, Shed, Mismatched, Failed int64
	// firstErr keeps one unexpected error for the report.
	firstErr error
}

func (c *counts) add(err error) {
	c.Sent++
	switch {
	case err == nil:
		c.Succeeded++
	case errors.Is(err, nimble.ErrOverloaded), errors.Is(err, errShed):
		c.Shed++
	case errors.Is(err, errMismatch):
		c.Mismatched++
		if c.firstErr == nil {
			c.firstErr = err
		}
	default:
		c.Failed++
		if c.firstErr == nil {
			c.firstErr = err
		}
	}
}

func (c *counts) merge(o counts) {
	c.Sent += o.Sent
	c.Succeeded += o.Succeeded
	c.Shed += o.Shed
	c.Mismatched += o.Mismatched
	c.Failed += o.Failed
	if c.firstErr == nil {
		c.firstErr = o.firstErr
	}
}

func tally(evs []*event) counts {
	var c counts
	for _, ev := range evs {
		c.add(ev.err)
	}
	return c
}

// maxOutstanding bounds the open loop's in-flight requests. It is far above
// what the offered rates keep outstanding; reaching it shows up as generator
// lateness rather than as unbounded goroutines.
const maxOutstanding = 4096

// picker hands out a workload's inputs as a sequence of seeded shuffles of
// the whole pool, so every pass carries the pool's exact mix.
type picker struct {
	rng   *rand.Rand
	ins   []*input
	order []int
}

func newPicker(ins []*input, rng *rand.Rand) *picker { return &picker{rng: rng, ins: ins} }

func (p *picker) next() *input {
	if len(p.order) == 0 {
		p.order = p.rng.Perm(len(p.ins))
	}
	i := p.order[0]
	p.order = p.order[1:]
	return p.ins[i]
}

// openLoop offers requests on a Poisson clock at rate per second for dur,
// whether or not earlier ones have finished, then waits for all of them.
// The arrival times come from rng and the inputs from pick alone, so a seed
// fixes the offered load exactly.
func openLoop(ctx context.Context, w workload, rate float64, dur time.Duration, rng *rand.Rand, pick *picker) []*event {
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	var evs []*event
	start := time.Now()
	due := start
	for ctx.Err() == nil {
		due = due.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if due.Sub(start) >= dur {
			break
		}
		ev := &event{in: pick.next(), due: due}
		evs = append(evs, ev)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev.err = w.issue(ctx, ev.in, ev)
			<-sem
		}()
	}
	wg.Wait()
	return evs
}

// closedLoop keeps callers requests outstanding for dur: each caller sends
// its next request as soon as the previous one returns. Each caller draws
// inputs from its own generator seeded from seed.
func closedLoop(ctx context.Context, w workload, callers int, dur time.Duration, seed int64) []*event {
	per := make([][]*event, callers)
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pick := newPicker(w.inputs(), rand.New(rand.NewSource(seed+int64(c)*7919)))
			for ctx.Err() == nil && time.Now().Before(deadline) {
				ev := &event{in: pick.next()}
				ev.due = time.Now()
				ev.err = w.issue(ctx, ev.in, ev)
				per[c] = append(per[c], ev)
				if errors.Is(ev.err, nimble.ErrOverloaded) || errors.Is(ev.err, errShed) {
					// A refused caller backs off instead of spinning.
					time.Sleep(time.Millisecond)
				}
			}
		}(c)
	}
	wg.Wait()
	var evs []*event
	for _, p := range per {
		evs = append(evs, p...)
	}
	return evs
}

// quantile returns the nearest-rank q-quantile of sorted values (NaN when
// there are none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// openSummary is what the open-loop phase measures over its succeeded
// requests, all timed from the scheduled arrival, sorted.
type openSummary struct {
	latency, ttft []float64 // ms
	lateness      []float64 // µs: sent minus due, every request
}

func summarizeOpen(evs []*event) openSummary {
	var s openSummary
	for _, ev := range evs {
		s.lateness = append(s.lateness, float64(ev.sent.Sub(ev.due))/1e3)
		if ev.err != nil {
			continue
		}
		s.latency = append(s.latency, float64(ev.done.Sub(ev.due))/1e6)
		s.ttft = append(s.ttft, float64(ev.first.Sub(ev.due))/1e6)
	}
	sort.Float64s(s.latency)
	sort.Float64s(s.ttft)
	sort.Float64s(s.lateness)
	return s
}

// perToken returns the sorted time per token, in µs, of the succeeded
// requests: the gaps between a stream's consecutive tokens, or a request's
// latency over the tokens it carried.
func perToken(evs []*event) []float64 {
	var xs []float64
	for _, ev := range evs {
		switch {
		case ev.err != nil:
		case ev.in.model.stream:
			for _, g := range ev.gaps {
				xs = append(xs, float64(g)/1e3)
			}
		default:
			xs = append(xs, float64(ev.done.Sub(ev.due))/1e3/float64(ev.in.tokens))
		}
	}
	sort.Float64s(xs)
	return xs
}

// itlEvents splits the events ITL is taken from, and the rest: a stream's
// token gaps in the saturation phase, where the scheduler interleaves
// streams in every step; a request's latency per token in the open loop,
// at the offered rate like TTFT. The other two (open-loop token gaps,
// saturation latency per token) spread too far from run to run on a shared
// host: the first moves with how fast an idle vCPU wakes for each token's
// reader, the second includes the wait behind a batch-mate and so magnifies
// every slow spell.
func itlEvents(open, sat []*event) (gated, other []*event) {
	for _, ev := range open {
		if ev.in.model.stream {
			other = append(other, ev)
		} else {
			gated = append(gated, ev)
		}
	}
	for _, ev := range sat {
		if ev.in.model.stream {
			gated = append(gated, ev)
		} else {
			other = append(other, ev)
		}
	}
	return gated, other
}

// blocksPerSlice is how many blocks of consecutive completions each
// saturation slice is cut into; the phase's rates are the median over the
// blocks of every slice.
const blocksPerSlice = 2

// saturationRates returns the median completion and token rates of the
// closed-loop slices: each slice's succeeded requests, in completion order,
// are cut into blocksPerSlice blocks and each block's rate is its requests
// (or tokens) over the time between the block's first and last completion.
// It also returns every block's completion rate, in run order.
func saturationRates(slices [][]*event) (rps, tps float64, rates []float64) {
	var toks []float64
	for _, evs := range slices {
		var ok []*event
		for _, ev := range evs {
			if ev.err == nil {
				ok = append(ok, ev)
			}
		}
		sort.Slice(ok, func(i, j int) bool { return ok[i].done.Before(ok[j].done) })
		per := len(ok) / blocksPerSlice
		if per < 2 {
			continue
		}
		for b := 0; b < blocksPerSlice; b++ {
			blk := ok[b*per : (b+1)*per+1]
			if b == blocksPerSlice-1 {
				blk = ok[b*per:]
			}
			secs := blk[len(blk)-1].done.Sub(blk[0].done).Seconds()
			var t float64
			for _, ev := range blk[1:] {
				t += float64(ev.in.tokens)
			}
			rates = append(rates, float64(len(blk)-1)/secs)
			toks = append(toks, t/secs)
		}
	}
	if len(rates) == 0 {
		return math.NaN(), math.NaN(), nil
	}
	return median(rates), median(toks), rates
}

// memSampler tracks the peak of the Go heap (bytes in live and
// not-yet-swept objects) while it runs, lap by lap.
type memSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64 // since the last lap
}

func startMemSampler(every time.Duration) *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		m.mu.Lock()
		if v := sample[0].Value.Uint64(); v > m.peak {
			m.peak = v
		}
		m.mu.Unlock()
	}
	go func() {
		defer close(m.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			read()
			select {
			case <-m.stop:
				read()
				return
			case <-t.C:
			}
		}
	}()
	return m
}

// Lap returns the peak since the previous lap, in MB, and starts a new lap.
func (m *memSampler) Lap() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peak
	m.peak = 0
	return float64(p) / (1 << 20)
}

// Stop ends sampling.
func (m *memSampler) Stop() {
	close(m.stop)
	<-m.done
}
