// Command benchmark is the served-statement benchmark: it stands the real
// system up in this process (System.ServeWire on loopback), drives it with
// two closed-loop wire clients over a 3-member shard fleet, checks the
// outputs, and prints every metric by name. See README.md.
//
//	go run ./benchmark -workload point_lookup -seed 1 -seconds 15 -trace 0
//	go run ./benchmark -workload all -out report-a    # every workload, both passes
//	go run ./benchmark compare report-a/report.json report-b/report.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workloadName = flag.String("workload", "all", "workload to run: point_lookup, analytic_mix, wide_result, elt_durable, or all (one child process per workload and pass)")
		seed         = flag.Int64("seed", 1, "seed of every generated data set and parameter stream")
		seconds      = flag.Float64("seconds", 15, "length of the measured window")
		warmup       = flag.Float64("warmup", 2, "seconds of warm-up before the window")
		trace        = flag.Int("trace", 0, "0: the end-to-end pass; 1: the traced pass (per-layer ledger, trace file)")
		out          = flag.String("out", filepath.Join(buildDir, "out"), "directory for trace-<workload>.json and, with -workload all, report.json")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *workloadName == "all" {
		fatal(runAll(*seed, *seconds, *warmup, *out))
		return
	}
	wl := workloadByName(*workloadName)
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	res, err := run(runConfig{
		wl: wl, sc: fullScale, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  time.Duration(*warmup * float64(time.Second)),
		trace:   *trace != 0, workDir: buildDir, outDir: *out,
	})
	fatal(err)
	line, err := json.Marshal(res)
	fatal(err)
	fmt.Println(string(line))
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
