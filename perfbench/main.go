// Command perfbench is the repository benchmark: one seeded command that
// sets up a workload, drives it closed-loop for a fixed time, checks every
// answer against the in-process model, and prints its metrics as one JSON
// line. README.md beside this file describes the workloads and metrics.
//
// Usage:
//
//	bash perfbench/run.sh --workload predict-float --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh --compare old.jsonl new.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics of a traced replay down the ladder of
// public entry points, and the spans are written to
// .bench_build/spans-<workload>-<seed>.jsonl at exit.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"prid/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the parsed command-line flags of one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansOut string
	record   string
}

// errUsage marks a command-line error: the command exits 2 for it.
var errUsage = errors.New("usage error")

func parseFlags(args []string, stderr io.Writer) (options, []string, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 0, "input seed (>= 1); the same seed generates the same inputs")
	seconds := fs.Int("seconds", 0, "length of the timed phase in seconds (>= 1)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	record := fs.String("record", "", "also append {workload, seed, trace, result} to this JSONL file, the input of --compare")
	compare := fs.Bool("compare", false, "compare two record files given as arguments (old new) and print per-metric verdicts")
	if err := fs.Parse(args); err != nil {
		return options{}, nil, errUsage
	}
	if *compare {
		if fs.NArg() != 2 {
			return options{}, nil, usage(stderr, "--compare needs two record files: old new")
		}
		return options{}, fs.Args(), nil
	}
	if fs.NArg() != 0 {
		return options{}, nil, usage(stderr, "unexpected arguments: %v", fs.Args())
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		record: *record}
	if _, ok := workloads[o.workload]; !ok {
		return options{}, nil, usage(stderr, "--workload must be one of %s, got %q", workloadNames(), o.workload)
	}
	if o.seed == 0 {
		return options{}, nil, usage(stderr, "--seed must be >= 1")
	}
	if o.seconds < 1 || o.seconds > 600 {
		return options{}, nil, usage(stderr, "--seconds must be in [1, 600]")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, nil, usage(stderr, "--trace must be 0 or 1")
	}
	if o.trace {
		o.spansOut = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	return o, nil, nil
}

// run is main without the exit: 0 on success, 1 on a failed run, 2 on a
// command-line error.
func run(args []string, stdout, stderr io.Writer) int {
	o, compareFiles, err := parseFlags(args, stderr)
	if err != nil {
		return 2
	}
	if compareFiles != nil {
		if err := compareRecords(stdout, compareFiles[0], compareFiles[1], "BENCHMARK.json"); err != nil {
			logf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	obs.SetLevel(slog.LevelWarn)
	res, err := execute(context.Background(), o, fullSize, stderr)
	if err != nil {
		logf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res) //pridlint:allow leaksurface the result line holds aggregate timings and scores, never model rows
	if err != nil {
		logf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	if o.record != "" {
		if err := appendRecord(o, res); err != nil { //pridlint:allow leaksurface the record holds the result line only
			logf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if _, err := fmt.Fprintln(stdout, string(line)); err != nil {
		logf(stderr, "perfbench: writing result: %v\n", err)
		return 1
	}
	return 0
}

// usage reports a command-line error; the command exits 2 for it.
func usage(stderr io.Writer, format string, args ...any) error {
	logf(stderr, format+"\n", args...)
	return errUsage
}

// logf writes a diagnostic line. A failed write to the log has nowhere
// else to be reported; the result line is written and checked apart.
func logf(w io.Writer, format string, args ...any) {
	_, _ = fmt.Fprintf(w, format, args...)
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// execute sets the workload up, runs its timed phase (plain or traced),
// and assembles the result.
func execute(ctx context.Context, o options, sz sizes, log io.Writer) (result, error) {
	wl := workloads[o.workload]
	inst, setupS, setupLayers, err := setupRepeated(wl, o.seed, sz)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	if err := inst.prepareOracle(); err != nil {
		return result{}, err
	}
	phase := time.Duration(o.seconds) * time.Second
	if !o.trace {
		return endToEnd(ctx, inst, phase, setupS, log) //pridlint:allow leaksurface returns aggregate metrics, never model rows
	}
	return traced(ctx, inst, phase, setupLayers, o.spansOut, log) //pridlint:allow leaksurface returns aggregate metrics; spans hold timings only
}

// appendRecord appends one run to the record file --compare reads.
func appendRecord(o options, res result) error {
	line, err := json.Marshal(record{Workload: o.workload, Seed: o.seed, Trace: o.trace, Result: res})
	if err != nil {
		return fmt.Errorf("encoding record: %w", err)
	}
	f, err := os.OpenFile(o.record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644) //pridlint:allow atomicwrite append-only log of runs; a torn last line means re-running one seed
	if err != nil {
		return fmt.Errorf("opening record file: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close() //pridlint:allow errdrop the write error is the one reported
		return fmt.Errorf("writing record file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing record file: %w", err)
	}
	return nil
}
