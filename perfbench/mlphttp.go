package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"nimble"
	"nimble/internal/ir"
	imodels "nimble/internal/models"
	"nimble/internal/vm"
)

const (
	// mlpPool is how many distinct MLP requests the workload cycles through.
	mlpPool = 256
	// mlpLargeShare of the pooled requests carry 64-256 rows; the rest
	// carry 1-4.
	mlpLargeShare = 0.02
	// deployEvery is the period of the hot-swap deploys beside the reads.
	deployEvery = time.Second
)

// httpMLP serves the MLP from a child nimble-serve process over HTTP/JSON.
type httpMLP struct {
	cfg   config
	m     *model
	ins   []*input
	probe []*input // one 1-row and one 256-row request for the ladder
	// load carries the requests over at most nproc keep-alive connections;
	// admin carries health checks, /stats and deploys on its own.
	load, admin *http.Client
	child       *child

	mu      sync.Mutex
	deploys []float64 // ms, every hot-swap deploy of the measured phases
	deployN counts
}

func newMLPHTTP(ctx context.Context, cfg config) (*httpMLP, error) {
	if cfg.serveBin == "" {
		return nil, errors.New("mlp-http needs -serve-bin (the nimble-serve binary)")
	}
	mcfg := imodels.DefaultMLPConfig()
	mlp := imodels.NewMLP(mcfg)
	w := &httpMLP{
		cfg:   cfg,
		m:     &model{name: "mlp", entry: "main", build: func() *ir.Module { return imodels.NewMLP(mcfg).Module }},
		load:  httpClient(cfg.nproc),
		admin: httpClient(1),
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	mk := func(rows int) (*input, error) {
		x := mlp.RandomBatch(rng, rows)
		body, err := json.Marshal(map[string]any{
			"model": "mlp",
			"args":  []any{map[string]any{"dtype": "float32", "shape": []int{rows, mcfg.In}, "data": x.AsF64()}},
		})
		if err != nil {
			return nil, err
		}
		return &input{
			model: w.m, val: nimble.TensorValue(x), tokens: rows, flops: mlp.BatchFlops(rows), body: body,
			obj: func() vm.Object { return vm.NewTensorObj(x) },
		}, nil
	}
	large := int(math.Round(mlpPool * mlpLargeShare))
	rows := append(stratified(rng, mlpPool-large, func() int { return 1 + rng.Intn(4) }),
		stratified(rng, large, func() int { return 64 + rng.Intn(193) })...)
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for _, r := range rows {
		in, err := mk(r)
		if err != nil {
			return nil, err
		}
		w.ins = append(w.ins, in)
	}
	for _, rows := range []int{1, 256} {
		in, err := mk(rows)
		if err != nil {
			return nil, err
		}
		w.probe = append(w.probe, in)
	}
	all := append(append([]*input(nil), w.ins...), w.probe...)
	if err := references(ctx, []*model{w.m}, all); err != nil {
		return nil, err
	}
	for _, in := range all {
		in.refData = in.ref.AsF64()
	}
	return w, nil
}

func httpClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
			ForceAttemptHTTP2:   false,
		},
	}
}

func (w *httpMLP) inputs() []*input { return w.ins }
func (w *httpMLP) models() []*model { return []*model{w.m} }

// setupTrial starts a nimble-serve child and times it to /healthz and one
// correct response. The compile the child performs is timed in-process
// afterwards, on the same module, for the compiler layer.
func (w *httpMLP) setupTrial(ctx context.Context, keep bool) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	c, err := startChild(w.cfg.serveBin, w.cfg.nproc, "mlp")
	if err != nil {
		return 0, 0, err
	}
	if err := c.waitHealthy(ctx, w.admin); err != nil {
		c.stop()
		return 0, 0, err
	}
	if err := w.post(ctx, c.base, w.ins[0], &event{}, nil); err != nil {
		c.stop()
		return 0, 0, fmt.Errorf("first mlp request: %w", err)
	}
	setup := time.Since(t0)

	mod := w.m.build()
	c0 := time.Now()
	p, err := nimble.Compile(mod)
	compile := time.Since(c0)
	if err != nil {
		c.stop()
		return 0, 0, err
	}
	if !keep {
		return setup, compile, c.stop()
	}
	if w.child != nil {
		if err := w.child.stop(); err != nil {
			c.stop()
			return 0, 0, err
		}
	}
	w.child = c
	w.m.prog = p
	return setup, compile, nil
}

func (w *httpMLP) issue(ctx context.Context, in *input, ev *event) error {
	return w.post(ctx, w.child.base, in, ev, nil)
}

// post sends one /invoke and checks the decoded output against the
// reference. When size is non-nil it receives the request and response
// body bytes, counting the response's latency_us field as absent so the
// figure depends on the payload alone.
func (w *httpMLP) post(ctx context.Context, base string, in *input, ev *event, size *int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/invoke", bytes.NewReader(in.body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	ev.sent = time.Now()
	resp, err := w.load.Do(req)
	ev.first = time.Now()
	if err != nil {
		ev.done = ev.first
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ev.done = time.Now()
	if err != nil {
		return err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusTooManyRequests:
		return errShed
	default:
		return fmt.Errorf("invoke: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var out struct {
		Output struct {
			Shape []int     `json:"shape"`
			Data  []float64 `json:"data"`
		} `json:"output"`
		LatencyUS json.RawMessage `json:"latency_us"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		return fmt.Errorf("%w: undecodable response: %v", errMismatch, err)
	}
	if size != nil {
		*size = len(in.body) + len(body) - len(out.LatencyUS)
	}
	want := in.ref.Shape()
	if len(out.Output.Shape) != len(want) || len(out.Output.Data) != len(in.refData) {
		return fmt.Errorf("%w: mlp output shape %v, want %v", errMismatch, out.Output.Shape, want)
	}
	for i, d := range want {
		if out.Output.Shape[i] != d {
			return fmt.Errorf("%w: mlp output shape %v, want %v", errMismatch, out.Output.Shape, want)
		}
	}
	for i, v := range out.Output.Data {
		if v != in.refData[i] {
			return fmt.Errorf("%w: mlp output element %d is %v, want %v", errMismatch, i, v, in.refData[i])
		}
	}
	return nil
}

// deploy hot-swaps a fresh build of the MLP into the child and returns how
// long the deploy call took.
func (w *httpMLP) deploy(ctx context.Context) (time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.child.base+"/admin/deploy", strings.NewReader(`{"model":"mlp"}`))
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := w.admin.Do(req)
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != http.StatusOK {
		return d, fmt.Errorf("deploy: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return d, nil
}

// startDeploys hot-swaps the model every deployEvery until the returned
// stop function is called; stop waits for the deploy in flight. Before each
// deploy it reads the outgoing version's counters into acc.
func (w *httpMLP) startDeploys(ctx context.Context, acc func()) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(deployEvery)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			if acc != nil {
				acc()
			}
			d, err := w.deploy(ctx)
			w.mu.Lock()
			w.deployN.add(err)
			if err == nil {
				w.deploys = append(w.deploys, float64(d)/1e6)
			}
			w.mu.Unlock()
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

func (w *httpMLP) snapshot(ctx context.Context) (serveSnap, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.child.base+"/stats", nil)
	if err != nil {
		return serveSnap{}, err
	}
	resp, err := w.admin.Do(req)
	if err != nil {
		return serveSnap{}, err
	}
	defer resp.Body.Close()
	var st struct {
		Models map[string][]struct {
			Version string              `json:"version"`
			Stats   nimble.ServiceStats `json:"stats"`
		} `json:"models"`
		Shared nimble.SharedStorageStats `json:"shared_storage"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serveSnap{}, fmt.Errorf("decoding /stats: %w", err)
	}
	s := serveSnap{vers: map[string]verCounters{}, sharedHits: st.Shared.Hits, sharedMisses: st.Shared.Misses}
	var e ewmas
	for name, vs := range st.Models {
		for _, v := range vs {
			s.addVersion(name+"@"+v.Version, v.Stats, &e)
		}
	}
	s.finish(e)
	return s, nil
}

func (w *httpMLP) close() {
	if w.child != nil {
		w.child.stop()
		w.child = nil
	}
	w.load.CloseIdleConnections()
	w.admin.CloseIdleConnections()
}

// child is a nimble-serve process on a loopback port.
type child struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, set before exited closes
	stderr bytes.Buffer
}

// startChild runs nimble-serve with the benchmark's core count and queue
// bound.
func startChild(bin string, nproc int, modelName string) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	c := &child{base: "http://" + addr, exited: make(chan struct{})}
	c.cmd = exec.Command(bin, "-model", modelName, "-addr", addr,
		"-workers", strconv.Itoa(nproc), "-max-queue", strconv.Itoa(maxQueue))
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc), "GOGC=100")
	c.cmd.Stderr = &c.stderr
	// The child must not outlive the benchmark, even when it is killed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting nimble-serve: %w", err)
	}
	go func() {
		c.err = c.cmd.Wait()
		close(c.exited)
	}()
	return c, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until it answers 200.
func (c *child) waitHealthy(ctx context.Context, client *http.Client) error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-c.exited:
			return fmt.Errorf("nimble-serve exited during start-up: %v: %s", c.err, c.stderr.String())
		default:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return errors.New("nimble-serve did not become healthy within 30s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// peakRSSMB reads the child's resident-set high-water mark (VmHWM).
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(c.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// stop asks the child to drain (SIGTERM) and waits for it to exit, killing
// it if it has not within ten seconds.
func (c *child) stop() error {
	select {
	case <-c.exited:
		return nil
	default:
	}
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.exited:
		return nil
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-c.exited
		return errors.New("nimble-serve ignored SIGTERM for 10s and was killed")
	}
}
