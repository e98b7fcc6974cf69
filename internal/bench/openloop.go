package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"nimble"
	"nimble/internal/models"
)

// OpenLoopConfig parameterizes the open-loop (Poisson-arrival) serving
// benchmark. The closed loop (ServeConfig) measures saturated throughput —
// every client always has a request in flight, so reported latency is
// dominated by self-inflicted queueing. The open loop is the honest
// latency-under-load instrument: arrivals come on an exponential clock at a
// fixed offered rate whether or not earlier requests have finished, and
// latency is measured from the scheduled arrival, so queueing delay (and
// coordinated omission) is counted, not hidden.
type OpenLoopConfig struct {
	// Workers is the session-pool size (default 8).
	Workers int
	// QPS enumerates offered arrival rates per cell (default 16, 32, 48).
	QPS []float64
	// Duration is the arrival window per cell (default 2s); the cell then
	// drains every issued request.
	Duration time.Duration
	// Seed drives arrivals and input sampling.
	Seed int64
	// Model filters the sweep ("bert" or "decoder"); empty runs both.
	Model string
}

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if len(c.QPS) == 0 {
		c.QPS = []float64{16, 32, 48}
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	return c
}

// OpenLoopRow is one (model, qps) measurement — the machine-readable
// schema of BENCH_serve.json.
type OpenLoopRow struct {
	Model   string  `json:"model"`
	Workers int     `json:"workers"`
	QPS     float64 `json:"offered_qps"`
	// Offered counts scheduled arrivals; Completed the ones that returned a
	// result; Shed the ones the admission gate or scheduler rejected with
	// ErrOverloaded (an open-loop system must shed or collapse).
	Offered   int64   `json:"offered"`
	Completed int64   `json:"completed"`
	Shed      int64   `json:"shed"`
	GoodputPS float64 `json:"goodput_per_sec"`
	// P50/P99 are completion latencies measured from the scheduled arrival
	// time, so they include queueing delay.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// TTFTP50/TTFTP99 are time-to-first-token quantiles (stream rows only):
	// the latency a user watching tokens render actually feels, and the
	// number iteration-level scheduling exists to improve.
	TTFTP50 time.Duration `json:"ttft_p50_ns,omitempty"`
	TTFTP99 time.Duration `json:"ttft_p99_ns,omitempty"`
}

// OpenLoopResult is the full sweep.
type OpenLoopResult struct {
	Config OpenLoopConfig `json:"config"`
	Rows   []OpenLoopRow  `json:"rows"`
	Notes  []string       `json:"notes"`
}

// Format renders the sweep as a table.
func (r *OpenLoopResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving latency under open-loop Poisson load (%d workers, %v per cell)\n",
		r.Config.Workers, r.Config.Duration)
	fmt.Fprintf(&b, "%-16s %8s %8s %6s %10s %10s %10s %10s %10s\n",
		"model", "qps", "done", "shed", "goodput/s", "p50", "p99", "ttft p50", "ttft p99")
	for _, row := range r.Rows {
		ttft50, ttft99 := "-", "-"
		if row.TTFTP99 > 0 {
			ttft50 = row.TTFTP50.Round(time.Microsecond).String()
			ttft99 = row.TTFTP99.Round(time.Microsecond).String()
		}
		fmt.Fprintf(&b, "%-16s %8.0f %8d %6d %10.0f %10v %10v %10s %10s\n",
			row.Model, row.QPS, row.Completed, row.Shed, row.GoodputPS,
			row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond), ttft50, ttft99)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// openModel is one open-loop target: issue runs request job and reports its
// time to first token (zero for non-streaming entries).
type openModel struct {
	name  string
	issue func(ctx context.Context, job int) (ttft time.Duration, err error)
	close func()
}

// OpenLoop runs the open-loop sweep over the public Service API — through
// the admission gate, the session pool's queue, and the continuous-batching
// scheduler,
// exactly the stack nimble-serve exposes.
func OpenLoop(cfg OpenLoopConfig) (*OpenLoopResult, error) {
	cfg = cfg.withDefaults()
	result := &OpenLoopResult{Config: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var served []openModel
	if cfg.Model == "" || cfg.Model == "bert" {
		m, err := openBERT(cfg, rng)
		if err != nil {
			return nil, err
		}
		served = append(served, m)
	}
	if cfg.Model == "" || cfg.Model == "decoder" {
		m, err := openDecoder(cfg, rng)
		if err != nil {
			return nil, err
		}
		served = append(served, m)
	}
	if len(served) == 0 {
		return nil, fmt.Errorf("bench: no open-loop model matches %q (bert | decoder)", cfg.Model)
	}
	defer func() {
		for _, m := range served {
			m.close()
		}
	}()

	for _, m := range served {
		for i, qps := range cfg.QPS {
			row, err := runOpenCell(m, qps, cfg, cfg.Seed+int64(i))
			if err != nil {
				return nil, fmt.Errorf("bench: %s at %.0f qps: %w", m.name, qps, err)
			}
			result.Rows = append(result.Rows, row)
		}
	}
	result.Notes = append(result.Notes,
		"latency measured from the scheduled Poisson arrival (queueing delay included; no coordinated omission)",
		"shed = ErrOverloaded from the admission gate / deadline projection; goodput counts completions only",
		"decoder rows stream via the continuous-batching scheduler; ttft is time to first emitted token",
	)
	return result, nil
}

func openBERT(cfg OpenLoopConfig, rng *rand.Rand) (openModel, error) {
	bertCfg := models.BERTReduced()
	bertCfg.Layers = 2
	bert := models.NewBERT(bertCfg)
	prog, err := nimble.Compile(bert.Module)
	if err != nil {
		return openModel{}, err
	}
	svc, err := prog.Serve(nimble.WithWorkers(cfg.Workers))
	if err != nil {
		return openModel{}, err
	}
	inputs := make([]nimble.Value, 32)
	for i := range inputs {
		inputs[i] = nimble.TensorValue(bert.RandomIDs(rng, 8+rng.Intn(41)))
	}
	return openModel{
		name: "bert",
		issue: func(ctx context.Context, job int) (time.Duration, error) {
			_, err := svc.Invoke(ctx, "main", inputs[job%len(inputs)])
			return 0, err
		},
		close: func() { svc.Close() },
	}, nil
}

func openDecoder(cfg OpenLoopConfig, rng *rand.Rand) (openModel, error) {
	dec := models.NewDecoder(models.DefaultDecoderConfig())
	prog, err := nimble.Compile(dec.Module)
	if err != nil {
		return openModel{}, err
	}
	svc, err := prog.Serve(nimble.WithWorkers(cfg.Workers))
	if err != nil {
		return openModel{}, err
	}
	starts := make([]nimble.Value, 32)
	for i := range starts {
		starts[i] = nimble.TensorValue(models.StartToken(rng.Int63n(int64(dec.Config.Vocab))))
	}
	return openModel{
		name: "decoder",
		issue: func(ctx context.Context, job int) (time.Duration, error) {
			issued := time.Now()
			st, err := svc.InvokeStream(ctx, "generate", starts[job%len(starts)])
			if err != nil {
				return 0, err
			}
			var ttft time.Duration
			for st.Next() {
				if ttft == 0 {
					ttft = time.Since(issued)
				}
			}
			if err := st.Close(); err != nil {
				return 0, err
			}
			return ttft, nil
		},
		close: func() { svc.Close() },
	}, nil
}

// runOpenCell offers requests at rate qps on an exponential clock for the
// window, then drains. Every scheduled arrival is issued regardless of how
// many are still in flight — that is the point of the open loop.
func runOpenCell(m openModel, qps float64, cfg OpenLoopConfig, seed int64) (OpenLoopRow, error) {
	row := OpenLoopRow{Model: m.name, Workers: cfg.Workers, QPS: qps}
	rng := rand.New(rand.NewSource(seed))

	var mu sync.Mutex
	var lats, ttfts []time.Duration
	var shed, failed int64
	var firstErr error

	var wg sync.WaitGroup
	start := time.Now()
	next := start
	for {
		next = next.Add(time.Duration(rng.ExpFloat64() / qps * float64(time.Second)))
		if next.Sub(start) > cfg.Duration {
			break
		}
		time.Sleep(time.Until(next))
		row.Offered++
		wg.Add(1)
		go func(arrival time.Time, job int64) {
			defer wg.Done()
			ttft, err := m.issue(context.Background(), int(job))
			lat := time.Since(arrival)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				lats = append(lats, lat)
				if ttft > 0 {
					ttfts = append(ttfts, ttft)
				}
			case errors.Is(err, nimble.ErrOverloaded):
				shed++
			default:
				failed++
				if firstErr == nil {
					firstErr = err
				}
			}
		}(next, row.Offered)
	}
	wg.Wait()
	if firstErr != nil {
		return row, firstErr
	}
	_ = failed
	if len(lats) == 0 {
		return row, fmt.Errorf("every arrival was shed (offered %d)", row.Offered)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row.Completed = int64(len(lats))
	row.Shed = shed
	row.GoodputPS = float64(len(lats)) / cfg.Duration.Seconds()
	row.P50 = lats[len(lats)/2]
	row.P99 = lats[len(lats)*99/100]
	if len(ttfts) > 0 {
		sort.Slice(ttfts, func(i, j int) bool { return ttfts[i] < ttfts[j] })
		row.TTFTP50 = ttfts[len(ttfts)/2]
		row.TTFTP99 = ttfts[len(ttfts)*99/100]
	}
	return row, nil
}
