package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
)

// report is what -workload all writes to report.json and compare reads: one
// child process per workload and pass, so every measurement starts on a clean
// heap.
type report struct {
	Header    reportHeader              `json:"header"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type reportHeader struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
	Warmup     float64 `json:"warmup"`
}

// workloadReport holds a workload's two passes; each carries its sample count
// (attempted), and the per-layer pass the per-class counts (class.<name>.n).
type workloadReport struct {
	EndToEnd *runResult `json:"end_to_end"`
	PerLayer *runResult `json:"per_layer"`
}

// commit names the measured revision: run.sh passes it in, a VCS-stamped
// build knows it, a bare checkout has none.
func commit() string {
	if c := os.Getenv("IDAAX_BENCH_COMMIT"); c != "" {
		return c
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func runAll(seed int64, seconds, warmup float64, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	rep := report{
		Header: reportHeader{
			Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
			Seed: seed, Clients: clientCount, Seconds: seconds, Warmup: warmup,
		},
		Workloads: map[string]workloadReport{},
	}
	hdr, _ := json.Marshal(rep.Header) // a struct of numbers and strings cannot fail
	fmt.Printf("header %s\n", hdr)
	float := func(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }
	for _, wl := range workloads {
		var passes [2]*runResult
		for trace := range passes {
			cmd := exec.Command(self, "-workload", wl.name, "-seed", strconv.FormatInt(seed, 10),
				"-seconds", float(seconds), "-warmup", float(warmup), "-trace", strconv.Itoa(trace), "-out", out)
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s -trace %d: %w", wl.name, trace, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			passes[trace] = &runResult{}
			if err := json.Unmarshal(lines[len(lines)-1], passes[trace]); err != nil {
				return fmt.Errorf("%s -trace %d: bad result line: %w", wl.name, trace, err)
			}
			printResult(wl.name, trace, passes[trace])
		}
		rep.Workloads[wl.name] = workloadReport{EndToEnd: passes[0], PerLayer: passes[1]}
	}
	raw, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(out, "report.json")
	fmt.Println("report:", path)
	return os.WriteFile(path, raw, 0o644)
}

// printResult lists one pass's metrics by name with their units; metrics that
// do not apply to the workload (zero) are left out.
func printResult(workload string, trace int, r *runResult) {
	fmt.Printf("%s trace=%d correct=%v attempted=%d failed=%d\n", workload, trace, r.Correct, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if m := r.Metrics[name]; m.Value != 0 {
			fmt.Printf("  %-36s %16.4f %s\n", name, m.Value, m.Unit)
		}
	}
}

// metric finds a metric in whichever pass reported it.
func (w workloadReport) metric(name string) (float64, bool) {
	for _, pass := range []*runResult{w.EndToEnd, w.PerLayer} {
		if pass != nil {
			if m, ok := pass.Metrics[name]; ok {
				return m.Value, true
			}
		}
	}
	return 0, false
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compareMain implements `benchmark compare A.json B.json`: per workload and
// bounded metric both values, how much worse B is, and the bound; then the
// per-layer counts that must repeat exactly. It returns the exit code.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
		return 2
	}
	a, err := readReport(args[0])
	if err == nil {
		var b *report
		if b, err = readReport(args[1]); err == nil {
			return compareReports(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareReports(a, b *report) int {
	bad := 0
	fmt.Printf("%-14s %-24s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "worse by", "bound")
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.name], b.Workloads[wl.name]
		for _, m := range endToEnd {
			if m.Workloads != nil && !slices.Contains(m.Workloads, wl.name) {
				continue
			}
			va, oka := wa.metric(m.Name)
			vb, okb := wb.metric(m.Name)
			if !oka || !okb {
				fmt.Printf("%-14s %-24s missing from a report\n", wl.name, m.Name)
				bad++
				continue
			}
			worse := worseBy(m, va, vb)
			verdict := ""
			if worse > m.Bound {
				verdict = "  REGRESSION"
				bad++
			}
			fmt.Printf("%-14s %-24s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", wl.name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
		for _, m := range layerMetrics {
			if !m.Exact {
				continue
			}
			va, _ := wa.metric(m.Name)
			vb, _ := wb.metric(m.Name)
			if va != vb {
				fmt.Printf("%-14s %-24s %14.4f %14.4f  EXACT COUNT DIFFERS\n", wl.name, m.Name, va, vb)
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d metric(s) out of bounds\n", bad)
		return 1
	}
	fmt.Println("every metric within its bound; exact counts identical")
	return 0
}

// worseBy is how much worse vb is than va as a share of va (negative:
// better). A metric that is zero in A worsens by B's absolute value, so a
// failed_frac that rises from zero always exceeds its bound of zero.
func worseBy(m bounded, va, vb float64) float64 {
	diff := vb - va
	if m.Better == "higher" {
		diff = -diff
	}
	if va == 0 {
		return diff
	}
	return diff / va
}
