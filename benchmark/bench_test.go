package main

import (
	"encoding/json"
	"hash/fnv"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload for a moment at tiny scale, both passes,
// with the oracle on: each must come back correct, without a failed
// statement, and with every metric of its pass present.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			name := wl.name + "/end_to_end"
			want := len(driverMetrics())
			if trace {
				name, want = wl.name+"/per_layer", len(layerMetrics)
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(runConfig{
					wl: wl, sc: tinyScale, seed: 7, seconds: time.Second, warmup: 100 * time.Millisecond,
					trace: trace, workDir: dir, outDir: dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != want {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), want)
				}
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// streamHash hashes the first statements both clients of a workload would
// send at a seed. The streams need no running system.
func streamHash(wl *workload, seed int64) uint64 {
	sc := tinyScale
	if wl.resize != nil {
		sc = wl.resize(sc)
	}
	e := &env{wl: wl, sc: sc, seed: seed}
	h := fnv.New64a()
	for client := 0; client < clientCount; client++ {
		s := wl.stream(e, client)
		for i := 0; i < 200; i++ {
			h.Write([]byte(s.next().sql))
		}
	}
	return h.Sum64()
}

func TestSeedDeterminesStatementStream(t *testing.T) {
	for _, wl := range workloads {
		if a, b := streamHash(wl, 1), streamHash(wl, 1); a != b {
			t.Errorf("%s: the same seed gave two statement streams", wl.name)
		}
		if a, b := streamHash(wl, 1), streamHash(wl, 2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same statement stream", wl.name)
		}
	}
}

// TestBenchmarkJSONMatchesSpec pins BENCHMARK.json to the tables in spec.go:
// names, units, directions and bounds live in one place.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var got struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []metric                     `json:"end_to_end"`
		PerLayer  []metric                     `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Workloads) != len(workloadWhy) {
		t.Fatalf("%d workloads, want %d", len(got.Workloads), len(workloadWhy))
	}
	for i, w := range workloadWhy {
		if got.Workloads[i].Name != w.Name || got.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %+v, want %+v", i, got.Workloads[i], w)
		}
	}
	want := driverMetrics()
	if len(got.EndToEnd) != len(want) {
		t.Fatalf("%d end_to_end metrics, want %d", len(got.EndToEnd), len(want))
	}
	for i, m := range want {
		g := got.EndToEnd[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound == nil || *g.Bound != m.Bound {
			t.Errorf("end_to_end %d is %+v, want %+v", i, g, m)
		}
	}
	if len(got.PerLayer) != len(layerMetrics) {
		t.Fatalf("%d per_layer metrics, want %d", len(got.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		g := got.PerLayer[i]
		if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || g.Bound != nil {
			t.Errorf("per_layer %d is %+v, want %+v", i, g, m)
		}
	}
}
