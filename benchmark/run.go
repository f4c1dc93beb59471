package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"vroom/internal/runner"
)

// Phase shape of one workload run. Timing metrics are medians over short
// segments, because disturbed moments on a shared machine run up to twice as
// slow as quiet ones and a median over segments sheds them.
const (
	closedSegments = 6
	openSegments   = 10
	// closedShare and openShare split -seconds between the phases; the rest
	// is the traced pass. A layers-only run spends layersClosedShare on a
	// short closed loop and the rest on probes.
	closedShare       = 0.4
	openShare         = 0.5
	layersClosedShare = 0.25
	// setups is how often an end-to-end run sets the workload up; setup_s
	// is the median.
	setups = 5
	// lateLimitMs, times nproc, is the generator lateness p99 past which a
	// workload's latency metrics are marked invalid. An idle Go runtime
	// parks in epoll_wait, whose timeout is whole milliseconds, so about
	// 1.2 ms of it is the timer's own.
	lateLimitMs = 2.0
)

// value is one measured metric. q1 and q3 are the quartiles across segments
// where the metric is a median over segments.
type value struct {
	v      float64
	q1, q3 float64
	spread bool
}

// report is what one workload run measured and checked.
type report struct {
	workload          string
	e2e               map[string]value
	layers            map[string]float64
	attempted, failed int64
	errs              []string // failed correctness checks
	notes             []string // generator honesty, trace file, reconciliation terms
	// latencyInvalid marks op_p50_ms/op_p99_ms as measured by a starved
	// generator.
	latencyInvalid bool
	// parsedMB is, per type, the MB of HTML, CSS and JS bodies a page load's
	// client parses for references; accounted says the accountant was on.
	// Both feed the reconciliation.
	parsedMB  map[string]float64
	accounted bool
}

func (r *report) fail(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return len(r.errs) == 0 }

// overSegments stores the median and quartiles of one per-segment reading.
func (r *report) overSegments(name string, segs []segment, f func(segment) float64) {
	xs := make([]float64, len(segs))
	for i, s := range segs {
		xs[i] = f(s)
	}
	q1, q3 := quartiles(xs)
	r.e2e[name] = value{v: median(xs), q1: q1, q3: q3, spread: true}
}

// latency stores op_p50_ms and op_p99_ms as the median over segments of each
// segment's own percentile. Pooling the samples instead would let one stall
// of the machine, which lands in a single segment, set the run's p99.
func (r *report) latency(segs [][]float64) {
	for name, q := range map[string]float64{"op_p50_ms": 0.50, "op_p99_ms": 0.99} {
		xs := make([]float64, len(segs))
		for i, lat := range segs {
			xs[i] = quantile(lat, q)
		}
		q1, q3 := quartiles(xs)
		r.e2e[name] = value{v: median(xs), q1: q1, q3: q3, spread: true}
	}
}

// setUp starts w on inputs generated from seed and returns how long that
// took: corpus generation, archives, first training, listeners, warm-up.
func setUp(w *workload, seed int64, tr *tracer) (*instance, float64, error) {
	start := time.Now()
	inst, err := w.start(rand.New(rand.NewSource(seed)), tr)
	return inst, time.Since(start).Seconds(), err
}

// account adds a phase's operations to the report and, on a failure, the
// first reason an operation gave.
func (r *report) account(inst *instance, attempted, failed int64) {
	r.attempted += attempted
	r.failed += failed
	inst.tally.mu.Lock()
	err := inst.tally.firstErr
	inst.tally.mu.Unlock()
	if failed > 0 && err != nil {
		r.fail("%d of %d operations failed, first: %v", failed, attempted, err)
	} else if failed > 0 {
		r.fail("%d of %d operations failed", failed, attempted)
	}
}

// beginSegment runs the instance's untimed per-segment preparation.
func (r *report) beginSegment(inst *instance) {
	if inst.newSegment == nil {
		return
	}
	if err := inst.newSegment(); err != nil {
		r.fail("new segment: %v", err)
	}
}

// runWorkload runs one workload for about seconds of measuring. With e2e it
// takes the end-to-end metrics untraced: closed-loop segments, then open-loop
// segments at the workload's fixed rate. With layers it takes the metrics the
// traced pass and a short closed loop give; the probes are the caller's.
// The traced pass always runs: wire_bytes_per_op and hint_bytes_per_doc are
// counted by its wrappers over a fixed number of operations.
func runWorkload(w *workload, seed int64, seconds float64, e2e, layers bool) *report {
	rep := &report{workload: w.name, e2e: make(map[string]value), layers: make(map[string]float64)}
	tp, ok := rep.tracedPass(w, seed, layers)
	if !ok {
		return rep
	}
	setupTimes := []float64{tp.setup}
	// Further set-ups, only timed; the last one is the timed phases' own.
	for e2e && len(setupTimes) < setups-1 {
		inst, took, err := setUp(w, seed, nil)
		if err != nil {
			rep.fail("set-up: %v", err)
			return rep
		}
		setupTimes = append(setupTimes, took)
		if err := inst.stop(); err != nil {
			rep.fail("set-up: %v", err)
		}
	}
	inst, took, err := setUp(w, seed, nil)
	if err != nil {
		rep.fail("set-up: %v", err)
		return rep
	}
	rep.e2e["setup_s"] = value{v: median(append(setupTimes, took))}

	rep.timedPhases(w, inst, time.Duration(seconds*float64(time.Second)), e2e)
	untraced := inst.tally.snapshot()
	rep.e2e["heap_live_mb"] = value{v: heapLiveMiB()}
	if st := inst.stack; st != nil {
		rep.accounted = st.cfg.acct
		if inst.parses {
			rep.parsedMB = st.parsedMB()
		}
	}
	if sim := inst.sim; sim != nil {
		rep.e2e["wire_bytes_per_op"] = value{v: untraced.perOp(untraced.wireBytes)}
		rep.e2e["sim_plt_vroom_p50_ms"] = value{v: sim.pltMedianMs(runner.Vroom)}
		rep.e2e["sim_plt_h2_p50_ms"] = value{v: sim.pltMedianMs(runner.H2)}
		rep.layers["core.hint_precision"], rep.layers["core.hint_recall"] = sim.hintQuality()
		st := sim.cacheStats()
		hits := st.TrainingHits + st.PolarisHits + st.SnapshotHits
		misses := st.TrainingMisses + st.PolarisMisses + st.SnapshotMisses
		rep.layers["runner.caches_hit_share"] = float64(hits) / float64(max(hits+misses, 1))
	}
	if err := inst.stop(); err != nil {
		rep.fail("end of run: %v", err)
	}
	rep.e2e["failed_share"] = value{v: float64(rep.failed) / float64(max(rep.attempted, 1))}
	rep.fromTrace(tp, inst.sim == nil)

	// What the bypass workloads must show.
	switch w.name {
	case "page-h1":
		if n := tp.tr.h2Calls.Load(); n != 0 {
			rep.fail("page-h1 invoked ServeH2 %d times", n)
		}
	case "hint-docs":
		if rep.layers["hintstore.retrains_per_s"] != 0 || tp.counts.degraded != 0 || untraced.degraded != 0 {
			rep.fail("hint-docs saw retrains or lookups that were not fresh")
		}
	case "sim-corpus":
		if n := tp.tr.dials.Load(); n != 0 {
			rep.fail("sim-corpus opened %d netem connections", n)
		}
	}
	return rep
}

// tracedResult is what the traced pass leaves for the report.
type tracedResult struct {
	tr     *tracer
	seg    segment
	counts counts
	setup  float64 // seconds its set-up took
}

// tracedPass sets the workload up with the harness wrappers installed, runs
// its fixed number of operations closed-loop and tears it down again. With
// write it also writes the trace file.
func (r *report) tracedPass(w *workload, seed int64, write bool) (tracedResult, bool) {
	tp := tracedResult{tr: newTracer()}
	inst, took, err := setUp(w, seed, tp.tr)
	if err != nil {
		r.fail("set-up: %v", err)
		return tp, false
	}
	tp.setup = took
	// The same operations once unrecorded first: right after set-up the h2
	// stack runs a third slower than in steady state, which would read as
	// tracing overhead.
	var next atomic.Int64
	for _, recorded := range []bool{false, true} {
		r.beginSegment(inst)
		tp.seg = closedSegment(inst.op, inst.clients, &next, forOps(w.tracedOps))
		r.account(inst, tp.seg.ops, tp.seg.failed)
		if !recorded {
			inst.tally.reset()
			tp.tr.reset()
		}
	}
	tp.tr.freeze()
	tp.counts = inst.tally.snapshot()
	if err := inst.stop(); err != nil {
		r.fail("traced pass: %v", err)
	}
	tp.tr.linkHandlers()
	if write {
		path, err := tp.tr.writeChrome(w.name)
		if err != nil {
			r.fail("trace file: %v", err)
		}
		r.notes = append(r.notes, fmt.Sprintf("trace: %d spans in %s", len(tp.tr.spans), path))
	}
	return tp, true
}

// timedPhases runs the untraced closed-loop phase and, with e2e on a workload
// that has a rate, the open-loop phase, on an instance that is already up.
func (r *report) timedPhases(w *workload, inst *instance, budget time.Duration, e2e bool) {
	share, nClosed := closedShare, closedSegments
	switch {
	case !e2e:
		share, nClosed = layersClosedShare, closedSegments/2
	case w.rate == 0:
		share = closedShare + openShare
	}
	closedBudget := time.Duration(float64(budget) * share)
	retrainsBefore := 0
	if inst.stack != nil {
		retrainsBefore = inst.stack.retrains.count()
	}
	var (
		next atomic.Int64
		segs []segment
	)
	closedStart := time.Now()
	if w.rate == 0 {
		// Batch: a segment is one pass over the corpus on fresh caches,
		// repeated for as long as the budget lasts.
		for len(segs) < 3 || time.Since(closedStart) < closedBudget {
			r.beginSegment(inst)
			segs = append(segs, closedSegment(inst.op, inst.clients, &next, forOps(w.tracedOps)))
		}
	} else {
		for i := 0; i < nClosed; i++ {
			r.beginSegment(inst)
			segs = append(segs, closedSegment(inst.op, inst.clients, &next, forDuration(closedBudget/time.Duration(nClosed))))
		}
	}
	closedWall := time.Since(closedStart)
	var closedLat [][]float64
	var closedOps int64
	for _, s := range segs {
		r.account(inst, s.ops, s.failed)
		closedLat = append(closedLat, s.lat)
		closedOps += s.ops
	}
	r.overSegments("ops_per_s", segs, segment.opsPerSec)
	r.overSegments("cpu_us_per_op", segs, segment.cpuUsPerOp)
	r.overSegments("allocs_per_op", segs, segment.allocsPerOp)
	r.overSegments("alloc_bytes_per_op", segs, segment.bytesPerOp)
	if inst.stack != nil {
		rl := inst.stack.retrains
		r.layers["hintstore.retrains_per_s"] = float64(rl.count()-retrainsBefore) / closedWall.Seconds()
		r.layers["hintstore.retrain_ms_p50"] = rl.medianMs(retrainsBefore)
		r.layers["hintstore.stale_share"] = float64(inst.tally.snapshot().stale) / float64(max(closedOps, 1))
	}

	switch {
	case w.rate == 0:
		r.latency(closedLat)
		r.notes = append(r.notes, fmt.Sprintf("batch: op_p50_ms/op_p99_ms are the wall time of one runner.Run, %d passes of n=%d (p99 is a pass's slowest load)",
			len(closedLat), len(closedLat[0])))
	case e2e:
		var lats [][]float64
		var late []float64
		var maxInflight int64
		segDur := time.Duration(float64(budget) * openShare / openSegments)
		for i := 0; i < openSegments; i++ {
			r.beginSegment(inst)
			seg := openLoop(inst.op, inst.clients, &next, w.rate, segDur)
			r.account(inst, seg.attempted, seg.failed)
			lats = append(lats, seg.lat)
			late = append(late, seg.late...)
			maxInflight = max(maxInflight, seg.maxInflight)
		}
		r.latency(lats)
		lateP99 := quantile(late, 0.99)
		r.notes = append(r.notes, fmt.Sprintf("open loop %g op/s, %d segments of n=%d (%d beyond p99)  gen.late_p99_ms %.3f ms  gen.max_inflight %d count",
			w.rate, len(lats), len(lats[0]), len(lats[0])/100, lateP99, maxInflight))
		if lateP99 > lateLimitMs*float64(runtime.GOMAXPROCS(0)) || maxInflight >= inflightCap {
			r.latencyInvalid = true
			r.notes = append(r.notes, "INVALID op_p50_ms/op_p99_ms: the generator ran late or hit the in-flight cap")
		}
	}
}

// fromTrace stores what the traced pass counted and timed; wire says the
// workload crosses the wire stack, so its byte counts are end-to-end metrics.
func (r *report) fromTrace(tp tracedResult, wire bool) {
	tr := tp.tr
	ops := float64(max(tp.seg.ops, 1))
	if wire {
		r.e2e["wire_bytes_per_op"] = value{v: float64(tr.bytesIn.Load()+tr.bytesOut.Load()) / ops}
		r.e2e["hint_bytes_per_doc"] = value{v: float64(tr.hintBytes.Load()) / float64(max(tr.rootDocs.Load(), 1))}
	}
	l := r.layers
	l["netem.dials_per_op"] = float64(tr.dials.Load()) / ops
	l["netem.conn_writes_per_op"] = float64(tr.writes.Load()) / ops
	l["netem.conn_reads_per_op"] = float64(tr.reads.Load()) / ops
	self := tr.selfTimes()
	if tr.h1Calls.Load() > 0 {
		l["h1.exchange_self_us"] = medianDur(self[layerFetch], time.Microsecond)
	} else {
		l["h2.exchange_self_us"] = medianDur(self[layerFetch], time.Microsecond)
	}
	var docs, assets []time.Duration
	for i := range tr.spans {
		if s := &tr.spans[i]; s.layer == layerHandler && s.doc {
			docs = append(docs, s.dur())
		} else if s.layer == layerHandler {
			assets = append(assets, s.dur())
		}
	}
	l["wire.doc_handler_us_p50"] = medianDur(docs, time.Microsecond)
	l["wire.asset_handler_us_p50"] = medianDur(assets, time.Microsecond)
	c := tp.counts
	if wire {
		// What of a load no fetch covers; a document request is its fetch.
		l["wire.client_load_self_ms"] = medianDur(self[layerOp], time.Millisecond)
	}
	l["wire.fetches_per_op"] = c.perOp(c.fetches)
	l["wire.push_streams_per_op"] = c.perOp(c.pushStreams)
	l["wire.pushed_bytes_per_op"] = c.perOp(c.pushedBytes)
	l["wire.retries_per_op"] = c.perOp(c.retries)
	l["wire.degraded_share"] = c.perOp(c.degraded)
	l["runner.trace_events_per_load"] = c.perOp(c.traceEvents)
	l["trace.overhead_share"] = 1 - tp.seg.opsPerSec()/r.e2e["ops_per_s"].v
}

// medianDur is the median of ds in the given unit, 0 when there are none.
func medianDur(ds []time.Duration, unit time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = per(float64(d), unit)
	}
	return median(xs)
}

// medianMs is the median duration of the retrains after the first skip.
func (l *retrainLog) medianMs(skip int) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if skip >= len(l.durs) {
		return 0
	}
	return medianDur(l.durs[skip:], time.Millisecond)
}

// pltMedianMs is the median simulated PLT over the corpus under pol.
func (s *simRef) pltMedianMs(pol runner.Policy) float64 {
	var xs []float64
	for k := range s.results {
		if simPolicies[k%len(simPolicies)] == pol {
			xs = append(xs, per(float64(s.results[k].PLT), time.Millisecond))
		}
	}
	return median(xs)
}

// hintQuality is the corpus-wide hint precision and recall under Vroom.
func (s *simRef) hintQuality() (precision, recall float64) {
	var used, unused, missed int
	for k := range s.results {
		if simPolicies[k%len(simPolicies)] == runner.Vroom {
			used += s.results[k].HintsUsed
			unused += s.results[k].HintsUnused
			missed += s.results[k].HintsMissed
		}
	}
	return float64(used) / float64(max(used+unused, 1)), float64(used) / float64(max(used+missed, 1))
}

// reconcile compares what the probes say the traced counts should cost with
// the CPU an operation took, and returns the share left unexplained together
// with the table of terms. A probe's wall time stands for CPU time: probes
// run on one goroutine, or hand off between two that never overlap.
func reconcile(w *workload, rep *report, probes map[string]float64) (float64, []string) {
	type term struct {
		what  string
		count float64
		unit  float64 // µs per count
	}
	var terms []term
	l := rep.layers
	if w.rate == 0 {
		for _, name := range []string{"runner.run_http1_cached_ms", "runner.run_h2_cached_ms", "runner.run_vroom_cached_ms"} {
			terms = append(terms, term{name + " x loads", 1.0 / 3, probes[name] * 1000})
		}
		terms = append(terms, term{"core.train_ms x sites trained per load", 1.0 / float64(len(simPolicies)), probes["core.train_ms"] * 1000})
	} else {
		fetches := l["wire.fetches_per_op"]
		const docs = 1.0 // one tenant root document per operation
		proto := "h2"
		if w.name == "page-h1" {
			proto = "h1"
		}
		small, large := probes[proto+".roundtrip_1k_us"], probes[proto+".roundtrip_100k_us"]
		terms = []term{
			{proto + ".roundtrip_1k_us x fetches", fetches, small},
			{proto + ".roundtrip_100k_us, per KiB past the first x KiB", rep.e2e["wire_bytes_per_op"].v/1024 - fetches, (large - small) / 99},
			{"wire.serve_h1_asset_ns x assets", fetches - docs, probes["wire.serve_h1_asset_ns"] / 1000},
			{"wire.serve_h1_doc_us x docs", docs, probes["wire.serve_h1_doc_us"]},
			{"hints.parse_us x docs", docs, probes["hints.parse_us"]},
		}
		if proto == "h2" {
			terms = append(terms, term{"h2.hpack_{en,de}code_hints_ns x docs", docs,
				(probes["h2.hpack_encode_hints_ns"] + probes["h2.hpack_decode_hints_ns"]) / 1000})
		}
		for _, typ := range []string{"html", "css", "js"} {
			if mb := rep.parsedMB[typ]; mb > 0 {
				name := "webpage.extract_refs_" + typ + "_mb_per_s"
				terms = append(terms, term{name + " x MB the client parses", mb, 1e6 / probes[name]})
			}
		}
		if rep.accounted {
			terms = append(terms,
				term{"wire.accountant_note_hints_us x docs", docs, probes["wire.accountant_note_hints_us"]},
				term{"wire.accountant_note_request_ns x fetches", fetches, probes["wire.accountant_note_request_ns"] / 1000})
		}
		if l["hintstore.retrains_per_s"] > 0 {
			perOp := l["hintstore.retrains_per_s"] / rep.e2e["ops_per_s"].v
			terms = append(terms,
				term{"core.train_ms x retrains", perOp, probes["core.train_ms"] * 1000},
				term{"persist.append_fsync_always_us x retrains", perOp, probes["persist.append_fsync_always_us"]})
		}
	}
	cpu := rep.e2e["cpu_us_per_op"].v
	var sum float64
	lines := []string{fmt.Sprintf("reconciliation against cpu_us_per_op %.1f us:", cpu)}
	sort.SliceStable(terms, func(i, j int) bool { return terms[i].count*terms[i].unit > terms[j].count*terms[j].unit })
	for _, t := range terms {
		cost := t.count * t.unit
		sum += cost
		lines = append(lines, fmt.Sprintf("  %-52s %10.2f x %10.3f us = %10.1f us (%4.1f%%)", t.what, t.count, t.unit, cost, 100*cost/cpu))
	}
	lines = append(lines, fmt.Sprintf("  %-52s %36.1f us (%4.1f%%)", "unexplained", cpu-sum, 100*(1-sum/cpu)))
	return 1 - sum/cpu, lines
}
