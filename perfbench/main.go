// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public layer entry points for a fixed
// wall-clock budget, checks every output it produced, and prints the
// workload's metrics as one JSON object on the last line of standard output.
//
//	perfbench --workload pulse-serial --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (medians over the run's
// timed units); with --trace 1 the run interleaves traced units with untraced
// ones and reports the per-layer metrics plus the tracing overhead. See
// README.md for the workloads, the metrics and the reference numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(*bench) error{
	"pulse-serial":  func(b *bench) error { return runPulse(b, 1) },
	"pulse-sharded": func(b *bench) error { return runPulse(b, 2) },
	"figures-quick": runFigures,
	"serve-mixed":   runServe,
}

// buildDir, relative to the checkout root the benchmark runs from, holds
// everything a run leaves behind: the binary, caches and trace files.
const buildDir = ".bench_build"

// output is the last line the benchmark prints.
type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured wall-clock budget per run")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	dir, err := newWorkDir(filepath.Join(buildDir, "work"), *name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	b := newBench(*name, *seed, *seconds, *trace == 1, dir)
	if err := drive(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if b.traced {
		path := filepath.Join(buildDir, fmt.Sprintf("trace-%s-%d.jsonl", *name, *seed))
		if err := b.rec.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: write trace:", err)
			return 1
		}
		fmt.Printf("trace: %d spans written to %s\n", b.rec.len(), path)
	}
	out := b.result()
	for _, f := range b.failures {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", f)
	}
	b.printSummary()
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// newWorkDir makes a fresh per-process scratch directory under root.
func newWorkDir(root, name string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", fmt.Errorf("workdir: %w", err)
	}
	dir, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		return "", fmt.Errorf("workdir: %w", err)
	}
	return dir, nil
}
