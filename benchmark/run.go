package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// runConfig is one invocation: one workload, one seed, one pass.
type runConfig struct {
	wl      *workload
	sc      scale
	seed    int64
	seconds time.Duration // measured window
	warmup  time.Duration
	trace   bool   // the traced pass (per-layer ledger) instead of the end-to-end pass
	workDir string // scratch space (durable data); emptied when the run ends
	outDir  string // where trace-<workload>.json goes
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the object a run prints as its last line of output.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// setupRepeats is how many times the end-to-end pass sets the system up;
// setup_s is the median, and the last system is the one measured.
const setupRepeats = 3

// window is one closed-loop interval: every client runs its stream until the
// deadline has passed and its current round is complete.
type window struct {
	length        time.Duration
	t0            time.Time
	samples       []sample // every statement of every whole round
	before, after snapshot // around all of samples

	// Filled by the sampler of the traced pass only.
	heapInuseMax  uint64
	goroutinesMax int
	diskBytesMax  int64
	checkpoints   []checkpointSeen
}

type checkpointSeen struct {
	end time.Time
	dur time.Duration
}

// drive runs one window. With watch set, a sampler polls the heap, the
// goroutine count and the store's checkpoints meanwhile.
func (e *env) drive(streams []*stream, length time.Duration, watch bool) *window {
	w := &window{length: length}
	perClient := make([][]sample, len(streams))
	var stopSampler chan struct{}
	var samplerDone sync.WaitGroup
	if watch {
		stopSampler = make(chan struct{})
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			e.sampleProcess(w, stopSampler)
		}()
	}
	w.before = e.snapshot()
	w.t0 = time.Now()
	deadline := w.t0.Add(length)
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, c := streams[i], e.clients[i]
			buf := make([]sample, 0, 1<<12)
			complaints := 0
			for !(s.boundary() && time.Now().After(deadline)) {
				smp, _, err := c.do(s.next(), false)
				smp.client = i
				if err != nil && complaints < 3 {
					complaints++
					fmt.Fprintf(os.Stderr, "benchmark: client %d: %v\n", i, err)
				}
				buf = append(buf, smp)
			}
			perClient[i] = buf
		}(i)
	}
	wg.Wait()
	w.after = e.snapshot()
	if watch {
		close(stopSampler)
		samplerDone.Wait()
	}
	for _, buf := range perClient {
		w.samples = append(w.samples, buf...)
	}
	return w
}

// sampleProcess polls what has no before/after form: peak heap, peak
// goroutines, and each checkpoint's duration as the store reports it.
func (e *env) sampleProcess(w *window, stop <-chan struct{}) {
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
	store := e.sys.Coordinator().Store()
	var seen int64
	if store != nil {
		seen = store.Checkpoints()
	}
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case now := <-tick.C:
			metrics.Read(heap)
			if inuse := heap[0].Value.Uint64() + heap[1].Value.Uint64(); inuse > w.heapInuseMax {
				w.heapInuseMax = inuse
			}
			if n := runtime.NumGoroutine(); n > w.goroutinesMax {
				w.goroutinesMax = n
			}
			if store == nil {
				continue
			}
			if n := store.Checkpoints(); n != seen {
				seen = n
				w.checkpoints = append(w.checkpoints, checkpointSeen{now, time.Duration(store.LastCheckpointMicros()) * time.Microsecond})
				if d := e.diskBytes(); d > w.diskBytesMax {
					w.diskBytesMax = d
				}
			}
		}
	}
}

// timed returns the answered statements that completed inside the window
// proper; the tail that finishes the last round counts for ratios only.
func (w *window) timed() []sample {
	end := w.t0.Add(w.length)
	var out []sample
	for _, s := range w.samples {
		if !s.failed && !s.start.Add(s.dur).After(end) {
			out = append(out, s)
		}
	}
	return out
}

func (w *window) count(pred func(sample) bool) int {
	n := 0
	for _, s := range w.samples {
		if pred(s) {
			n++
		}
	}
	return n
}

// durationsMS picks one duration of every sample, in milliseconds.
func durationsMS(samples []sample, pick func(sample) time.Duration) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = float64(pick(s)) / float64(time.Millisecond)
	}
	return out
}

func latency(s sample) time.Duration { return s.dur }

// percentile returns the p-th percentile (0..1) by nearest rank; 0 without
// samples. It sorts vals.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[int(float64(len(vals)-1)*p)]
}

func median(vals []float64) float64 { return percentile(vals, 0.5) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEndMetrics are the driver's metrics of one window.
func endToEndMetrics(w *window, setups []float64) map[string]float64 {
	timed := w.timed()
	lat := durationsMS(timed, latency)
	return map[string]float64{
		"setup_s":         median(setups),
		"stmt_per_s":      float64(len(timed)) / w.length.Seconds(),
		"stmt_p50_ms":     percentile(lat, 0.50),
		"stmt_p99_ms":     percentile(lat, 0.99),
		"allocs_per_stmt": ratio(float64(w.after.mem.Mallocs-w.before.mem.Mallocs), float64(len(w.samples))),
	}
}

// run executes one invocation and returns what it prints.
func run(cfg runConfig) (*runResult, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	// Set up; the end-to-end pass does it several times for a steady setup_s.
	repeats := setupRepeats
	if cfg.trace {
		repeats = 1
	}
	var e *env
	var setups []float64
	for i := 0; i < repeats; i++ {
		if e != nil {
			e.close()
			runtime.GC()
		}
		t0 := time.Now()
		if e, err = setUp(cfg.wl, cfg.sc, cfg.seed, runDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { e.close() }()

	correct := true
	complain := func(stage string, err error) {
		if err != nil {
			correct = false
			fmt.Fprintf(os.Stderr, "benchmark: %s: %s: %v\n", cfg.wl.name, stage, err)
		}
	}
	complain("oracle", cfg.wl.oracle(e))

	streams := make([]*stream, clientCount)
	for i := range streams {
		streams[i] = cfg.wl.stream(e, i)
	}
	e.drive(streams, cfg.warmup, false)
	settle()

	res := &runResult{Metrics: map[string]metricValue{}}
	var windows []*window
	var vals map[string]float64
	units := map[string]string{}
	if !cfg.trace {
		w := e.drive(streams, cfg.seconds, false)
		windows = []*window{w}
		vals = endToEndMetrics(w, setups)
		for _, m := range driverMetrics() {
			units[m.Name] = m.Unit
		}
	} else {
		// The traced pass: a plain and a traced window (their difference is
		// what the pass's own observation costs), then the ladder. A client
		// span is what a window records of a statement anyway, so the traced
		// window adds only the sampler.
		t := newTracer()
		plain := e.drive(streams, cfg.seconds/2, false)
		settle()
		traced := e.drive(streams, cfg.seconds/2, true)
		t.clientSpans(traced)
		windows = []*window{plain, traced}
		lad, err := cfg.wl.ladder(e, t)
		complain("ladder", err)
		vals = layerValues(e, plain, traced, lad)
		for _, m := range layerMetrics {
			units[m.Name] = m.Unit
		}
		complain("trace file", t.write(cfg.outDir, cfg.wl.name))
	}
	if cfg.wl.durable {
		ms, err := eltReopenOracle(e)
		complain("reopen", err)
		vals["durable.reopen_ms"] = ms
	}
	for name, unit := range units {
		res.Metrics[name] = metricValue{vals[name], unit}
	}
	for _, w := range windows {
		res.Attempted += len(w.samples)
		res.Failed += w.count(func(s sample) bool { return s.failed })
		if w.count(func(s sample) bool { return s.wrong }) > 0 {
			correct = false
		}
	}
	res.Correct = correct
	return res, nil
}

// settle collects garbage and lets the collector's background work finish
// before a window opens.
func settle() {
	runtime.GC()
	time.Sleep(100 * time.Millisecond)
}
