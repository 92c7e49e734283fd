// Command perfbench is the repository benchmark: it boots the real
// ecrpqd binary on a seeded store, drives it over loopback HTTP with
// one of three workloads, checks every answer it can against a
// from-scratch evaluation, and prints the end-to-end metrics; with
// -trace 1 it also replays the same op stream in-process with spans
// around each layer's public functions and prints the per-layer
// metrics instead. perfbench/run.sh builds it and ecrpqd from the
// checkout and runs it from the repository root:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is the result object; everything
// else (stamp, tallies, traced-run comparison) goes before it, to
// stderr, or to the report under <work>/reports.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeed is the seed whose reference fingerprints are committed in
// testdata/golden.json.
const defaultSeed = 1

// runDeadline keeps a run inside the 180 s a benchmark run may take.
const runDeadline = 170 * time.Second

type options struct {
	workload    string
	seed        int64
	seconds     float64
	trace       int
	ecrpqd      string
	work        string
	golden      string
	writeGolden bool
}

// defaultProcs is the GOMAXPROCS the Go runtime chose for this process,
// and so for ecrpqd, on this machine.
var defaultProcs = runtime.GOMAXPROCS(0)

func main() {
	runtime.GOMAXPROCS(loadProcs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "serve-hot, serve-churn or cold-analytic")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&o.trace, "trace", 0, "1: also run the traced replay and print per-layer metrics")
	fs.StringVar(&o.ecrpqd, "ecrpqd", "", "ecrpqd binary built from this checkout")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for inputs, run copies, traces and reports")
	fs.StringVar(&o.golden, "golden", "perfbench/testdata/golden.json", "reference fingerprints of the default seed")
	fs.BoolVar(&o.writeGolden, "write-golden", false, "record the default seed's reference fingerprints of -workload in -golden and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload serve-hot|serve-churn|cold-analytic, -seconds > 0, -trace 0|1\n")
		return 2
	}
	if why, ok := ungated[o.workload]; ok {
		fmt.Fprintf(stderr, "perfbench: %s is not in BENCHMARK.json: %s\n", o.workload, why)
	}
	if o.ecrpqd == "" && !o.writeGolden {
		fmt.Fprintln(stderr, "perfbench: -ecrpqd is required (perfbench/run.sh builds it)")
		return 2
	}
	work, err := filepath.Abs(o.work)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	o.work = work

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	in, err := loadInputs(o.work, spec, o.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if o.writeGolden {
		if err := writeGolden(o, in); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	b := &bench{o: o, spec: spec, in: in, ctx: ctx, log: stderr}
	defer b.stopAll()
	res, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := b.writeReport(res); err != nil {
		fmt.Fprintln(stderr, "perfbench: report:", err)
		return 1
	}
	if res.Invalid != "" {
		fmt.Fprintln(stderr, "perfbench: run invalid, not reported:", res.Invalid)
		return 4
	}
	defs := endToEnd
	if o.trace == 1 {
		defs = perLayer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured\n", d.name)
			return 1
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	stamp, err := json.Marshal(map[string]any{"stamp": res.Stamp})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(map[string]any{
		"correct":   len(res.Mismatches) == 0,
		"attempted": res.Tally.Attempted,
		"failed":    res.Tally.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(stamp))
	fmt.Fprintln(stdout, string(out))
	if len(res.Mismatches) > 0 {
		fmt.Fprintf(stderr, "perfbench: correctness check FAILED (%d mismatches):\n", len(res.Mismatches))
		for _, m := range res.Mismatches {
			fmt.Fprintln(stderr, "  ", m)
		}
		return 3
	}
	return 0
}

// golden maps a workload to its reference fingerprints at defaultSeed.
type golden map[string][]string

func readGolden(path string) (golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return g, nil
}

func writeGolden(o options, in *inputs) error {
	if o.seed != defaultSeed {
		return fmt.Errorf("golden fingerprints are recorded for seed %d only", defaultSeed)
	}
	g, err := readGolden(o.golden)
	if errors.Is(err, os.ErrNotExist) {
		g, err = golden{}, nil
	}
	if err != nil {
		return err
	}
	seedGraph, err := readGraph(in.GraphTxt)
	if err != nil {
		return err
	}
	if g[o.workload], err = referenceFingerprints(seedGraph, in.Keys); err != nil {
		return err
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(o.golden, append(b, '\n'), 0o644)
}
