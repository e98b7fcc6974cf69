package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"nimble"
	"nimble/internal/ir"
	"nimble/internal/models"
)

// ServeConfig parameterizes the closed-loop serving benchmark.
type ServeConfig struct {
	// Workers is the session-pool size (0 = 8, matching the acceptance
	// target of 4x single-session throughput at 8 workers).
	Workers int
	// Clients enumerates concurrent closed-loop client counts
	// (default 1,2,4,8,16,32,64).
	Clients []int
	// Duration is the measured window per cell (default 400ms; the
	// closed loop saturates quickly).
	Duration time.Duration
	// Seed drives input sampling.
	Seed int64
	// Model filters the sweep to one served model ("bert" or "mlp");
	// empty runs all.
	Model string
}

func (c ServeConfig) withDefaults() ServeConfig {
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if len(c.Clients) == 0 {
		c.Clients = []int{1, 2, 4, 8, 16, 32, 64}
	}
	if c.Duration <= 0 {
		c.Duration = 400 * time.Millisecond
	}
	return c
}

// ServeRow is one (model, clients) measurement. The JSON tags are the
// machine-readable schema of BENCH_serve.json (the CI artifact).
type ServeRow struct {
	Model    string `json:"model"`
	Workers  int    `json:"workers"`
	Clients  int    `json:"clients"`
	Requests int64  `json:"requests"`
	// Throughput is requests/second; TokensPerSec weights each request by
	// its token count (sequence length, tree leaves, or batch rows).
	Throughput   float64       `json:"req_per_sec"`
	TokensPerSec float64       `json:"tokens_per_sec"`
	P50          time.Duration `json:"p50_ns"`
	P99          time.Duration `json:"p99_ns"`
	// Speedup is this row's throughput over the same model's 1-client row.
	Speedup float64 `json:"speedup"`
	// Coalesced counts requests served by merged dispatches (MLP only).
	Coalesced int64 `json:"coalesced,omitempty"`
}

// ServeResult is the full sweep.
type ServeResult struct {
	Config ServeConfig `json:"config"`
	Rows   []ServeRow  `json:"rows"`
	Notes  []string    `json:"notes"`
}

// Format renders the sweep as a table.
func (r *ServeResult) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving throughput/latency (closed loop, %d workers, %v per cell)\n",
		r.Config.Workers, r.Config.Duration)
	fmt.Fprintf(&b, "%-10s %8s %10s %12s %14s %10s %10s %9s\n",
		"model", "clients", "requests", "req/s", "tokens/s", "p50", "p99", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s %8d %10d %12.0f %14.0f %10v %10v %8.2fx\n",
			row.Model, row.Clients, row.Requests, row.Throughput, row.TokensPerSec,
			row.P50.Round(time.Microsecond), row.P99.Round(time.Microsecond), row.Speedup)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// servedModel abstracts one benchmarked entry point: Invoke runs one
// request by index and returns its token weight.
type servedModel struct {
	name   string
	jobs   int
	invoke func(job int) (int, error)
	stats  func() (coalesced int64)
}

// Serve runs the closed-loop load generator: for each model and each
// client count, N goroutines issue back-to-back requests against one
// Program.Serve service for the configured duration; the sweep reports
// throughput, token rate, and latency quantiles per cell. The admission
// queue is unbounded so a closed loop never sheds.
func Serve(cfg ServeConfig) (*ServeResult, error) {
	cfg = cfg.withDefaults()
	result := &ServeResult{Config: cfg}

	rng := rand.New(rand.NewSource(cfg.Seed))
	serveModel := func(mod *ir.Module) (*nimble.Service, error) {
		prog, err := nimble.Compile(mod)
		if err != nil {
			return nil, err
		}
		return prog.Serve(nimble.WithWorkers(cfg.Workers), nimble.WithMaxQueue(-1))
	}

	// BERT (dynamic data shapes): never merged, one dispatch per request.
	bertCfg := models.BERTReduced()
	bertCfg.Layers = 2
	bert := models.NewBERT(bertCfg)
	bertSvc, err := serveModel(bert.Module)
	if err != nil {
		return nil, err
	}
	defer bertSvc.Close()
	bertIDs := make([]nimble.Value, 32)
	bertTokens := make([]int, len(bertIDs))
	for i := range bertIDs {
		ids := bert.RandomIDs(rng, 8+rng.Intn(41)) // ragged lengths 8..48
		bertIDs[i], bertTokens[i] = nimble.TensorValue(ids), ids.NumElements()
	}
	bertModel := servedModel{
		name: "bert",
		jobs: len(bertIDs),
		invoke: func(job int) (int, error) {
			_, err := bertSvc.Invoke(context.Background(), "main", bertIDs[job%len(bertIDs)])
			return bertTokens[job%len(bertIDs)], err
		},
	}

	// MLP (row-independent): requests that queue behind busy sessions merge.
	mlp := models.NewMLP(models.DefaultMLPConfig())
	mlpSvc, err := serveModel(mlp.Module)
	if err != nil {
		return nil, err
	}
	defer mlpSvc.Close()
	mlpInputs := make([]nimble.Value, 32)
	mlpRows := make([]int, len(mlpInputs))
	for i := range mlpInputs {
		mlpRows[i] = 1 + rng.Intn(4)
		mlpInputs[i] = nimble.TensorValue(mlp.RandomBatch(rng, mlpRows[i]))
	}
	mlpModel := servedModel{
		name: "mlp",
		jobs: len(mlpInputs),
		invoke: func(job int) (int, error) {
			_, err := mlpSvc.Invoke(context.Background(), "main", mlpInputs[job%len(mlpInputs)])
			return mlpRows[job%len(mlpInputs)], err
		},
		stats: func() int64 { return mlpSvc.Stats().Batchers[0].Coalesced },
	}

	served := []servedModel{bertModel, mlpModel}
	if cfg.Model != "" {
		var filtered []servedModel
		for _, m := range served {
			if m.name == cfg.Model {
				filtered = append(filtered, m)
			}
		}
		if len(filtered) == 0 {
			return nil, fmt.Errorf("bench: no served model matches %q (bert | mlp)", cfg.Model)
		}
		served = filtered
	}
	for _, m := range served {
		var base float64
		var lastCoalesced int64
		for _, clients := range cfg.Clients {
			row, err := runServeCell(m, clients, cfg)
			if err != nil {
				return nil, err
			}
			row.Workers = cfg.Workers
			if clients == cfg.Clients[0] {
				base = row.Throughput
			}
			if base > 0 {
				row.Speedup = row.Throughput / base
			}
			if m.stats != nil {
				c := m.stats()
				row.Coalesced = c - lastCoalesced
				lastCoalesced = c
			}
			result.Rows = append(result.Rows, row)
		}
	}
	result.Notes = append(result.Notes,
		fmt.Sprintf("bert: %d layers, hidden %d, ragged seq 8..48 (tokens/s counts sequence positions)", bertCfg.Layers, bertCfg.Hidden),
		fmt.Sprintf("mlp: %d->%dx%d->%d rows 1..4 (tokens/s counts rows); queued requests merge", mlp.Config.In, mlp.Config.Hidden, mlp.Config.Layers, mlp.Config.Out),
		"speedup is vs the 1-client row of the same model on the same service")
	return result, nil
}

func runServeCell(m servedModel, clients int, cfg ServeConfig) (ServeRow, error) {
	row := ServeRow{Model: m.name, Clients: clients}
	var mu sync.Mutex
	var lats []time.Duration
	var tokens int64
	var firstErr error

	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var local []time.Duration
			var localTok int64
			job := c
			for time.Now().Before(deadline) {
				start := time.Now()
				tok, err := m.invoke(job)
				lat := time.Since(start)
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				local = append(local, lat)
				localTok += int64(tok)
				job += clients
			}
			mu.Lock()
			lats = append(lats, local...)
			tokens += localTok
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	if firstErr != nil {
		return row, firstErr
	}
	if len(lats) == 0 {
		return row, fmt.Errorf("bench: no requests completed for %s at %d clients", m.name, clients)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	row.Requests = int64(len(lats))
	row.Throughput = float64(len(lats)) / cfg.Duration.Seconds()
	row.TokensPerSec = float64(tokens) / cfg.Duration.Seconds()
	row.P50 = lats[len(lats)/2]
	row.P99 = lats[len(lats)*99/100]
	return row, nil
}
