// Command idaabench regenerates the evaluation tables of the reproduction
// (experiments E1–E12 and the architecture figure F1). Each experiment builds
// its own system instance, generates its workload deterministically and prints
// the resulting table, so every number can be reproduced with
//
//	go run ./cmd/idaabench -scale full
//	go run ./cmd/idaabench -experiment e12 -scale small
//
// For CI and tooling, -json writes a machine-readable report of every table
// (including each experiment's named metrics), and -baseline compares the
// fresh metrics against a checked-in report, exiting non-zero when any metric
// regresses by more than -tolerance (throughput dropping, data movement
// rising) or is missing from the fresh report:
//
//	go run ./cmd/idaabench -experiment e12 -scale small \
//	    -json BENCH_E12.json -baseline .github/bench-baselines/BENCH_E12.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"idaax/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "all", "experiment id to run (e1..e12, f1, or 'all')")
	scaleName := flag.String("scale", "small", "dataset scale: small or full")
	slices := flag.Int("slices", 0, "accelerator worker slices (0 = number of CPUs)")
	jsonPath := flag.String("json", "", "write a machine-readable report of the run to this path")
	baselinePath := flag.String("baseline", "", "compare the run's metrics against this report; exit 1 on regression")
	tolerance := flag.Float64("tolerance", 0.30, "allowed relative regression before -baseline fails the run")
	flag.Parse()

	var scale bench.Scale
	switch strings.ToLower(*scaleName) {
	case "small":
		scale = bench.SmallScale()
	case "full":
		scale = bench.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (use small or full)\n", *scaleName)
		os.Exit(2)
	}
	scale.Slices = *slices

	ids := bench.IDs()
	if strings.ToLower(*experiment) != "all" {
		ids = []string{strings.ToLower(*experiment)}
	}

	report := &bench.Report{Scale: scale.Name}
	exitCode := 0
	for _, id := range ids {
		start := time.Now()
		table, err := bench.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", id, err)
			exitCode = 1
			continue
		}
		report.Experiments = append(report.Experiments, table)
		fmt.Println(table.Format())
		fmt.Printf("  (scale=%s, wall clock %.1fs)\n\n", scale.Name, time.Since(start).Seconds())
	}

	if *jsonPath != "" {
		payload, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal report: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*jsonPath, append(payload, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("report written to %s\n", *jsonPath)
	}

	if *baselinePath != "" {
		raw, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "read baseline %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		var baseline bench.Report
		if err := json.Unmarshal(raw, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "parse baseline %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
		regressions := bench.CompareMetrics(&baseline, report, *tolerance)
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "bench regression against %s (tolerance %.0f%%):\n", *baselinePath, *tolerance*100)
			for _, r := range regressions {
				fmt.Fprintf(os.Stderr, "  %s\n", r)
			}
			os.Exit(1)
		}
		fmt.Printf("no regressions against %s (tolerance %.0f%%)\n", *baselinePath, *tolerance*100)
	}
	os.Exit(exitCode)
}
