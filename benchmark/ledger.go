package main

import (
	"fmt"
	"os"
	"sort"
	"time"
)

// The per-layer ledger of the traced pass. Counts are before/after deltas of
// the public snapshots; the ones that must repeat exactly come from the
// ladder's single-client replay, the rest from the traced two-client window.
// Times come from the ladder.

const noClass = -1 // rungs that belong to no statement class

// selfTimes is one class's ladder, folded into per-layer self times (µs).
type selfTimes struct {
	client                                     float64
	wire, federation, sqlparse, planner, shard float64
	accel, vexec, colstore, relalg, wal        float64
}

func rungMedian(r map[string][]float64, name string) float64 {
	return median(append([]float64(nil), r[name]...))
}

// fold turns one class's rung medians into self times: a rung minus the rungs
// directly below it. The read path and the INSERT path have different ladders.
func fold(r map[string][]float64) selfTimes {
	m := func(name string) float64 { return rungMedian(r, name) }
	s := selfTimes{client: m(rungClient), wire: m(rungClient) - m(rungExec), sqlparse: m(rungParse)}
	if len(r[rungShardInsert]) > 0 {
		s.federation = m(rungExec) - m(rungParse) - m(rungShardInsert) - m(rungWALAppend)
		s.shard = m(rungShardInsert) - m(rungColInsert)
		s.colstore = m(rungColInsert)
		s.wal = m(rungWALAppend)
		return s
	}
	s.federation = m(rungExec) - m(rungParse) - m(rungShard)
	s.planner = m(rungPlan)
	s.shard = m(rungShard) - m(rungPlan) - m(rungAccel) - m(rungRelalg)
	s.relalg = m(rungRelalg)
	s.colstore = m(rungScan)
	if vex := m(rungVexec); vex > 0 {
		s.accel, s.vexec = m(rungAccel)-vex, vex-m(rungScan)
	} else {
		s.accel = m(rungAccel) - m(rungScan)
	}
	return s
}

func (s selfTimes) layers() map[string]float64 {
	return map[string]float64{
		"wire": s.wire, "federation": s.federation, "sqlparse": s.sqlparse, "planner": s.planner,
		"shard": s.shard, "accel": s.accel, "vexec": s.vexec, "colstore": s.colstore, "relalg": s.relalg, "wal": s.wal,
	}
}

// descended lists the classes that went below the client rung, with their
// share of the replayed sample among those classes.
func (l *ladderResult) descended() map[int]float64 {
	total := 0
	for class, r := range l.rungs {
		if len(r[rungExec]) > 0 {
			total += l.n[class]
		}
	}
	out := map[int]float64{}
	for class, r := range l.rungs {
		if len(r[rungExec]) > 0 {
			out[class] = float64(l.n[class]) / float64(total)
		}
	}
	return out
}

// weighted is the mix-weighted mean over the descended classes of a
// per-class value (usually a median).
func (l *ladderResult) weighted(pick func(class int) float64) float64 {
	var sum float64
	for class, share := range l.descended() {
		sum += share * pick(class)
	}
	return sum
}

func (l *ladderResult) weightedRung(name string) float64 {
	return l.weighted(func(class int) float64 { return rungMedian(l.rungs[class], name) })
}

// classSamples splits the windows' answered statements by class.
func classSamples(windows ...*window) map[int][]sample {
	out := map[int][]sample{}
	for _, w := range windows {
		for _, s := range w.samples {
			if !s.failed {
				out[s.class] = append(out[s.class], s)
			}
		}
	}
	return out
}

// rowsPerSecond is rows credited ÷ time spent, over statements of the classes.
func rowsPerSecond(byClass map[int][]sample, classes ...string) float64 {
	var rows int
	var spent time.Duration
	for _, c := range classes {
		for _, s := range byClass[classID(c)] {
			rows += s.rows
			spent += s.dur
		}
	}
	return ratio(float64(rows), spent.Seconds())
}

// layerValues assembles every per-layer metric of one traced pass.
func layerValues(e *env, plain, traced *window, l *ladderResult) map[string]float64 {
	v := map[string]float64{}
	// Per-class medians and rates are taken over both windows: a class is a
	// fifth or a hundredth of the statements, and needs the samples.
	byClass := classSamples(plain, traced)
	tracedInserts := classSamples(traced)[classID("insert")]
	n := float64(len(traced.samples))
	secs := traced.after.at.Sub(traced.before.at).Seconds()

	// --- the traced two-client window ---------------------------------------
	var wireSelf, queued []float64
	var rowsOut, commits int
	var ingested int64
	for _, s := range traced.samples {
		if s.failed {
			continue
		}
		wireSelf = append(wireSelf, float64((s.dur-s.elapsed-s.queued).Nanoseconds())/1000)
		queued = append(queued, float64(s.queued.Nanoseconds())/1000)
		switch classNames[s.class] {
		case "insert":
			ingested += int64(s.userBytes)
			commits++
		case "stage1", "stage2", "stage3", "train", "score", "ddl":
			commits++
		default:
			rowsOut += s.rows
		}
	}
	v["wire.self_us_p50"] = median(wireSelf)
	v["wire.resp_bytes_per_stmt"] = ratio(float64(traced.after.received-traced.before.received), n)
	v["wire.rows_out_per_s"] = ratio(float64(rowsOut), secs)
	v["admission.queued_us_p50"] = percentile(queued, 0.50)
	v["admission.queued_us_p99"] = percentile(queued, 0.99)
	for c := range traced.after.adm.Admitted {
		v["admission.admitted"] += float64(traced.after.adm.Admitted[c] - traced.before.adm.Admitted[c])
		v["admission.shed"] += float64(traced.after.adm.Shed[c] - traced.before.adm.Shed[c] + traced.after.adm.TimedOut[c] - traced.before.adm.TimedOut[c])
	}

	w0, w1 := traced.before.wal, traced.after.wal
	v["wal.records"] = float64(w1.Records - w0.Records)
	v["wal.fsyncs"] = float64(w1.Fsyncs - w0.Fsyncs)
	v["wal.rotations"] = float64(w1.Rotations - w0.Rotations)
	v["wal.bytes_per_user_byte"] = ratio(float64(w1.Bytes-w0.Bytes), float64(ingested))
	v["wal.fsyncs_per_commit"] = ratio(v["wal.fsyncs"], float64(commits))
	v["durable.checkpoints"] = float64(traced.after.ckpts - traced.before.ckpts)
	var ckptMS []float64
	for _, c := range traced.checkpoints {
		ckptMS = append(ckptMS, float64(c.dur.Microseconds())/1000)
		// The slowest INSERT that overlapped a checkpoint is the stall.
		for _, s := range tracedInserts {
			if s.start.Before(c.end) && s.start.Add(s.dur).After(c.end.Add(-c.dur)) {
				v["durable.stall_ms_max"] = max(v["durable.stall_ms_max"], float64(s.dur.Microseconds())/1000)
			}
		}
	}
	if e.wl.durable {
		// Live user data is at most the set-up load plus one cycle's ingest
		// per tenant; the disk holds the checkpoint image and the WAL tail.
		perCycle := ratio(float64(ingested), float64(len(tracedInserts))) * float64(e.sc.eltBatches)
		v["durable.disk_bytes_per_user_byte"] = ratio(float64(traced.diskBytesMax), float64(e.userBytes)+clientCount*perCycle)
	}

	v["proc.alloc_kb_per_stmt"] = ratio(float64(traced.after.mem.TotalAlloc-traced.before.mem.TotalAlloc)/1024, n)
	v["proc.gc_cycles"] = float64(traced.after.mem.NumGC - traced.before.mem.NumGC)
	v["proc.gc_pause_ms_total"] = float64(traced.after.mem.PauseTotalNs-traced.before.mem.PauseTotalNs) / 1e6
	v["proc.heap_inuse_mb_max"] = float64(traced.heapInuseMax) / (1 << 20)
	v["proc.cpu_s_per_kstmt"] = ratio((traced.after.cpu-traced.before.cpu).Seconds()*1000, n)
	v["proc.goroutines_max"] = float64(traced.goroutinesMax)

	for class, samples := range byClass {
		name := classNames[class]
		v[classP50Name(name)] = median(durationsMS(samples, latency))
		v["class."+name+".n"] = float64(len(samples))
	}
	v["first_chunk_p50_ms"] = median(durationsMS(byClass[classID("streamed")], func(s sample) time.Duration { return s.firstChunk }))
	v["ingest_rows_per_s"] = rowsPerSecond(byClass, "insert")
	v["transform_rows_per_s"] = rowsPerSecond(byClass, "stage1", "stage2", "stage3")
	v["train_rows_per_s"] = rowsPerSecond(byClass, "train")
	v["score_rows_per_s"] = rowsPerSecond(byClass, "score")
	v["analytics.train_ms_p50"] = v[classP50Name("train")]
	v["analytics.score_ms_p50"] = v[classP50Name("score")]
	failed := func(s sample) bool { return s.failed }
	v["failed_frac"] = ratio(float64(plain.count(failed)+traced.count(failed)), float64(len(plain.samples)+len(traced.samples)))

	tracedP50 := median(durationsMS(traced.timed(), latency))
	v["trace.overhead_frac"] = ratio(tracedP50, median(durationsMS(plain.timed(), latency))) - 1

	// --- set-up and storage -------------------------------------------------
	v["loader.rows_per_s"] = e.loaderRowsPerS
	var stored int64
	dict := 0
	for i, m := range e.router.Members() {
		for _, name := range m.TableNames() {
			t, err := m.Table(name)
			if err != nil {
				continue // dropped between the listing and the lookup
			}
			stored += t.ApproxBytes()
			if i == 0 {
				for _, enc := range t.ColumnEncodings() {
					if enc.Dict {
						dict++
					}
				}
			}
		}
	}
	v["colstore.bytes_per_user_byte"] = ratio(float64(stored), float64(e.userBytes))
	v["colstore.dict_columns"] = float64(dict)

	if l == nil || l.stmts == 0 {
		return v
	}

	// --- the ladder's single-client replay: the exact counts ----------------
	stmts := float64(l.stmts)
	rt := routeBetween(l.before, l.after)
	v["wire.req_bytes_per_stmt"] = float64(l.after.sent-l.before.sent) / stmts
	v["wire.chunks_per_stmt"] = float64(l.chunks) / stmts
	v["shard.pruned_frac"] = float64(rt.pruned) / stmts
	v["shard.scans_avoided_per_stmt"] = float64(rt.scansAvoided) / stmts
	v["shard.twophase_per_stmt"] = float64(rt.twoPhase) / stmts
	v["shard.frames_per_stmt"] = float64(rt.frames) / stmts
	v["shard.frame_bytes_per_stmt"] = float64(rt.frameBytes) / stmts
	v["shard.rows_gathered_per_stmt"] = float64(rt.gathered) / stmts
	v["shard.colocated_joins"] = float64(rt.colocated)
	v["shard.broadcast_joins"] = float64(rt.broadcast)
	v["accel.vectorized_frac"] = ratio(float64(rt.vectorized), float64(rt.queriesRun))
	v["accel.vexec_fallbacks"] = float64(rt.fallbacks)
	v["colstore.rows_scanned_per_stmt"] = float64(rt.rowsScanned) / stmts
	v["colstore.blocks_pruned_per_stmt"] = float64(rt.blocksPruned) / stmts
	v["colstore.rows_scanned_per_row_out"] = ratio(float64(rt.rowsScanned), float64(l.rowsOut))
	v["analytics.scatters_per_call"] = ratio(float64(l.procRoute.scatters), float64(l.procCalls))
	v["analytics.partials_per_call"] = ratio(float64(l.procRoute.partials), float64(l.procCalls))
	v["analytics.rows_written_local"] = float64(l.procRoute.writtenLocal)
	v["analytics.rows_gathered"] = float64(l.procRoute.gathered)

	// --- the ladder's times -------------------------------------------------
	v["ladder.client_us_p50"] = l.weightedRung(rungClient)
	v["federation.exec_us_p50"] = l.weightedRung(rungExec)
	v["sqlparse.parse_us_p50"] = l.weightedRung(rungParse)
	v["planner.plan_us_p50"] = l.weightedRung(rungPlan)
	v["shard.query_us_p50"] = l.weightedRung(rungShard)
	v["accel.query_us_p50"] = l.weightedRung(rungAccel)
	v["vexec.run_us_p50"] = l.weightedRung(rungVexec)
	v["colstore.scan_us_p50"] = l.weightedRung(rungScan)
	v["relalg.materialize_us_p50"] = l.weightedRung(rungRelalg)
	v["federation.self_us_p50"] = l.weighted(func(class int) float64 { return fold(l.rungs[class]).federation })
	v["shard.self_us_p50"] = l.weighted(func(class int) float64 { return fold(l.rungs[class]).shard })
	v["sqlparse.allocs_per_stmt"] = median(l.parseAllocs)
	v["planner.allocs_per_stmt"] = median(l.planAllocs)
	v["vexec.allocs_per_run"] = median(l.vexecAllocs)
	v["vexec.rows_per_us"] = median(l.vexecRowsPerUS)
	v["accel.member_skew"] = median(l.memberSkew)
	v["shard.insert_rows_per_s"] = median(l.shardInsertRowsPerS)
	v["colstore.insert_rows_per_s"] = median(l.colInsertRowsPerS)
	v["wal.append_durable_us_p50"] = rungMedian(l.rungs[classID("insert")], rungWALAppend)
	if len(ckptMS) == 0 {
		// No checkpoint fell into the traced window: use the forced ones.
		for _, us := range l.rungs[noClass][rungCheckpoint] {
			ckptMS = append(ckptMS, us/1000)
		}
	}
	v["durable.checkpoint_ms_p50"] = median(ckptMS)

	// covered: the self times, negatives clamped, over the client rung. The
	// rungs telescope, so anything but 1 is replays disagreeing with each other.
	v["ladder.covered_frac"] = ratio(l.weighted(func(class int) float64 {
		var sum float64
		for _, self := range fold(l.rungs[class]).layers() {
			sum += max(self, 0)
		}
		return sum
	}), v["ladder.client_us_p50"])
	// concurrent: the same classes' medians with two clients, over one client.
	v["ladder.concurrent_over_single"] = ratio(l.weighted(func(class int) float64 {
		return median(durationsMS(byClass[class], latency)) * 1000
	}), v["ladder.client_us_p50"])
	printLedger(e.wl.name, l)
	return v
}

// printLedger writes the human-readable layer ledger of one traced pass to
// standard error: per class and for the workload's mix, each layer's self
// time and its share of the client-observed median.
func printLedger(workload string, l *ladderResult) {
	order := []string{"wire", "federation", "sqlparse", "planner", "shard", "accel", "vexec", "colstore", "relalg", "wal"}
	row := func(label string, client float64, layers map[string]float64) {
		fmt.Fprintf(os.Stderr, "  %-10s client %10.1f us |", label, client)
		for _, name := range order {
			if layers[name] != 0 {
				fmt.Fprintf(os.Stderr, " %s %.1f (%.0f%%)", name, layers[name], 100*ratio(layers[name], client))
			}
		}
		fmt.Fprintln(os.Stderr)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %s layer ledger (self time, share of the single-client median):\n", workload)
	shares := l.descended()
	classes := make([]int, 0, len(shares))
	for class := range shares {
		classes = append(classes, class)
	}
	sort.Ints(classes)
	mix := map[string]float64{}
	var client float64
	for _, class := range classes {
		s := fold(l.rungs[class])
		row(classNames[class], s.client, s.layers())
		client += shares[class] * s.client
		for name, self := range s.layers() {
			mix[name] += shares[class] * self
		}
	}
	row("mix", client, mix)
}
