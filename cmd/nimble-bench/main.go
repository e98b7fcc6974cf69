// Command nimble-bench regenerates the paper's tables and figures (see
// DESIGN.md §4 for the experiment index). Host-CPU columns are measured;
// ARM/GPU columns come from the platform cost model and print "(sim)".
//
// With -serve it instead runs the serving load generator. The default
// arrival process is the closed loop (1..64 concurrent clients over a
// shared session pool, reporting p50/p99 latency and requests/sec per
// client count); -arrival poisson switches to the open loop — arrivals on
// an exponential clock at each -qps rate, latency measured from the
// scheduled arrival so queueing delay is counted. The shared -model flag
// filters either sweep to one model.
//
//	nimble-bench -serve                                  # closed loop
//	nimble-bench -serve -arrival poisson -qps 16,32,48   # open loop
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"nimble/bench"
	"nimble/cmd/internal/cli"
)

func main() {
	exp := flag.String("experiment", "all", "table1 | table2 | table3 | table4 | figure3 | memplan | decode | all")
	quick := flag.Bool("quick", false, "reduced sample counts and model sizes")
	seed := flag.Int64("seed", 7, "sampler seed")
	model := cli.ModelFlag("")
	serveMode := flag.Bool("serve", false, "run the concurrent-serving load generator instead of the paper tables")
	serveWorkers := flag.Int("serve-workers", 8, "session pool size for -serve")
	serveDur := flag.Duration("serve-duration", time.Second, "measured window per -serve cell")
	arrival := flag.String("arrival", "closed", "with -serve: arrival process, closed (saturating clients) | poisson (open loop at fixed -qps)")
	qpsList := flag.String("qps", "", "with -arrival poisson: comma-separated offered rates, e.g. 16,32,48")
	jsonPath := flag.String("json", "", "with -serve: also write the sweep as machine-readable JSON to this path; otherwise: a directory to write the committed BENCH_core.json and BENCH_decode.json snapshots into")
	flag.Parse()

	if *serveMode {
		var res interface{ Format() string }
		var err error
		switch *arrival {
		case "poisson":
			res, err = bench.OpenLoop(bench.OpenLoopConfig{
				Workers:  *serveWorkers,
				QPS:      parseQPS(*qpsList),
				Duration: *serveDur,
				Seed:     *seed,
				Model:    *model,
			})
		case "closed":
			res, err = bench.Serve(bench.ServeConfig{
				Workers:  *serveWorkers,
				Duration: *serveDur,
				Seed:     *seed,
				Model:    *model,
			})
		default:
			log.Fatalf("serve: unknown -arrival %q (closed | poisson)", *arrival)
		}
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		fmt.Println(res.Format())
		if *jsonPath != "" {
			blob, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				log.Fatalf("serve: marshal: %v", err)
			}
			if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
				log.Fatalf("serve: %v", err)
			}
			log.Printf("serve: wrote %s", *jsonPath)
		}
		return
	}

	cfg := bench.Config{Quick: *quick, Seed: *seed}
	run := func(name string, f func(bench.Config) (fmt.Stringer, error)) {
		if *exp != "all" && *exp != name {
			return
		}
		r, err := f(cfg)
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Println(r)
	}
	run("table1", func(c bench.Config) (fmt.Stringer, error) { return wrap(bench.Table1(c)) })
	run("table2", func(c bench.Config) (fmt.Stringer, error) { return wrap(bench.Table2(c)) })
	run("table3", func(c bench.Config) (fmt.Stringer, error) { return wrap(bench.Table3(c)) })
	run("table4", func(c bench.Config) (fmt.Stringer, error) { return wrapT4(bench.Table4(c)) })
	run("figure3", func(c bench.Config) (fmt.Stringer, error) { return wrapF3(bench.Figure3(c)) })
	run("memplan", func(c bench.Config) (fmt.Stringer, error) { return wrapMP(bench.MemPlan(c)) })
	run("decode", func(c bench.Config) (fmt.Stringer, error) { return wrapDec(bench.Decode(c)) })

	// -json DIR regenerates the committed perf snapshots: BENCH_core.json
	// (per-model host µs/token, quick config) and BENCH_decode.json
	// (streaming decode tokens/s and TTFT).
	if *jsonPath != "" {
		core, err := bench.Core(cfg)
		if err != nil {
			log.Fatalf("core snapshot: %v", err)
		}
		writeSnapshot(filepath.Join(*jsonPath, "BENCH_core.json"), core)
		dec, err := bench.Decode(cfg)
		if err != nil {
			log.Fatalf("decode snapshot: %v", err)
		}
		writeSnapshot(filepath.Join(*jsonPath, "BENCH_decode.json"), dec)
	}
}

// parseQPS parses the -qps flag ("16,32,48"). Empty returns nil so the
// open-loop harness applies its default sweep.
func parseQPS(s string) []float64 {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			log.Fatalf("serve: bad -qps element %q (want positive numbers, e.g. 16,32,48)", part)
		}
		out = append(out, v)
	}
	return out
}

func writeSnapshot(path string, v any) {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatalf("snapshot %s: %v", path, err)
	}
	if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
		log.Fatalf("snapshot: %v", err)
	}
	log.Printf("wrote %s", path)
}

type str string

func (s str) String() string { return string(s) }

func wrap(t *bench.Table, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapT4(t *bench.Table4Result, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapF3(t *bench.Figure3Result, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapMP(t *bench.MemPlanResult, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
func wrapDec(t *bench.DecodeResult, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return str(t.Format()), nil
}
