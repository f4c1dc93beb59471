package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vroom/internal/browser"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/obs"
	"vroom/internal/runner"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

// workload is one named set of inputs. The names are fixed: later issues
// cite them.
type workload struct {
	name string
	why  string
	// rate is the fixed open-loop arrival rate in op/s, about 40% of the
	// closed-loop median measured at the commit that added the benchmark on
	// a 2-core machine. It is never recomputed at run time. 0 marks a batch
	// workload with no open-loop phase.
	rate float64
	// tracedOps is the fixed operation count of the traced pass and, on a
	// batch workload, of every pass.
	tracedOps int64
	// start sets the workload up — generates its inputs from rng, brings
	// the program up, warms it — and returns the running instance.
	start func(rng *rand.Rand, tr *tracer) (*instance, error)
}

// instance is a set-up workload.
type instance struct {
	op      opFunc
	clients int
	// newSegment runs, untimed, before every segment: sim-corpus starts each
	// pass on fresh caches, the document workloads on fresh connections.
	newSegment func() error
	// stop tears the instance down and returns the first end-of-run check
	// that failed.
	stop  func() error
	stack *stack // nil for sim-corpus
	// parses says the client parses the bodies it fetches for references
	// (page loads), which the reconciliation prices.
	parses bool
	tally  tally
	// sim-corpus results of the reference pass, nil elsewhere.
	sim *simRef
}

// counts is what operations report about themselves, as totals.
type counts struct {
	ops, fetches, pushStreams, pushedBytes int64
	retries, degraded, stale, wireBytes    int64
	traceEvents                            int64
}

// perOp divides one of the totals by the operation count.
func (c counts) perOp(total int64) float64 { return float64(total) / float64(max(c.ops, 1)) }

// tally collects the counts of an instance's operations and the first reason
// one of them failed.
type tally struct {
	mu sync.Mutex
	counts
	firstErr error
}

// add folds one successful operation's counts in.
func (t *tally) add(f func(c *counts)) {
	t.mu.Lock()
	t.ops++
	f(&t.counts)
	t.mu.Unlock()
}

// snapshot returns the counts so far.
func (t *tally) snapshot() counts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts
}

// reset drops what warm-up counted.
func (t *tally) reset() {
	t.mu.Lock()
	t.counts = counts{}
	t.mu.Unlock()
}

// fail keeps the first failure's reason for the report.
func (t *tally) fail(format string, args ...any) bool {
	t.mu.Lock()
	if t.firstErr == nil {
		t.firstErr = fmt.Errorf(format, args...)
	}
	t.mu.Unlock()
	return false
}

var workloads = []*workload{
	{
		name:      "page-h2",
		why:       "staged page loads of 8 tenants over h2 with hints, push and accounting: ~140 fetches per load, so framer, HPACK, flow control and client scheduling dominate; open loop 70 op/s",
		rate:      70,
		tracedOps: 120,
		start: func(rng *rand.Rand, tr *tracer) (*instance, error) {
			return startPages(stackConfig{tenants: 8, push: true, acct: true, ttl: time.Hour, workers: 2}, rng, tr)
		},
	},
	{
		name:      "page-h1",
		why:       "the same pages through h1.Pool and h1.Server, no push, no accounting: same serving core, other transport; bypasses every h2 change; open loop 100 op/s",
		rate:      100,
		tracedOps: 120,
		start: func(rng *rand.Rand, tr *tracer) (*instance, error) {
			return startPages(stackConfig{tenants: 8, h1: true, ttl: time.Hour, workers: 2}, rng, tr)
		},
	},
	{
		name:      "hint-docs",
		why:       "root-document requests for 64 tenants on persistent h2 connections, every lookup fresh: gate, hintstore.Lookup, hints.Format and HPACK of ~8 KB of hints in isolation; open loop 1000 op/s",
		rate:      1000,
		tracedOps: 256,
		start: func(rng *rand.Rand, tr *tracer) (*instance, error) {
			return startDocs(stackConfig{tenants: 64, ttl: time.Hour, workers: 2}, rng, tr)
		},
	},
	{
		name:      "hint-churn",
		why:       "the same requests for 32 tenants on a durable store, TTL 1 s, fsync always, accounting on: stale lookups race retrain, swap and WAL append, so a read gain that taxes publish shows; open loop 400 op/s",
		rate:      400,
		tracedOps: 256,
		start: func(rng *rand.Rand, tr *tracer) (*instance, error) {
			return startDocs(stackConfig{tenants: 32, acct: true, durable: true,
				ttl: time.Second, maxStale: time.Hour, workers: 1}, rng, tr)
		},
	},
	{
		name:      "sim-corpus",
		why:       "simulated loads of 12 sites under http1, h2 and vroom on shared caches: event engine, netsim, browser, server farm, core.Train and the parsers; shares nothing with the h2/h1 stack; batch",
		tracedOps: int64(simSites * len(simPolicies)),
		start:     startSim,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// schedule is the seeded request order: a run of random permutations of the
// tenant indices, so every stretch of len(tenants) operations asks for each
// tenant once and per-op averages do not depend on where a segment ends.
type schedule struct {
	perms [][]int
}

func newSchedule(rng *rand.Rand, tenants int) schedule {
	s := schedule{perms: make([][]int, 16)}
	for i := range s.perms {
		s.perms[i] = rng.Perm(tenants)
	}
	return s
}

func (s schedule) tenant(i int64) int {
	n := int64(len(s.perms[0]))
	return s.perms[(i/n)%int64(len(s.perms))][i%n]
}

// pageRef is what every load of one root must reproduce.
type pageRef struct {
	fetches int
	bytes   int64
	urls    uint64 // order-independent hash of the fetched URL set
}

// digestPage reduces a report to its pageRef; ok is false when any fetch
// failed, the deadline hit or a status was not 200.
func digestPage(rep *wire.Report) (ref pageRef, ok bool) {
	if rep.Failed > 0 || rep.DeadlineHit {
		return ref, false
	}
	for i := range rep.Fetches {
		f := &rep.Fetches[i]
		if f.Status != 200 {
			return ref, false
		}
		h := fnv.New64a()
		h.Write([]byte(f.URL))
		ref.urls += h.Sum64()
	}
	ref.fetches, ref.bytes = len(rep.Fetches), rep.Bytes
	return ref, true
}

// firstFailure describes the first fetch of a report that did not end in a
// 200.
func firstFailure(rep *wire.Report) string {
	for i := range rep.Fetches {
		if f := &rep.Fetches[i]; f.Failed() || f.Status != 200 {
			return fmt.Sprintf("%s status %d after %d retries: %s %s", f.URL, f.Status, f.Retries, f.ErrKind, f.Err)
		}
	}
	return "none"
}

// startPages brings up a page-load workload: op = one staged
// wire.Client.LoadPage of a tenant root.
func startPages(cfg stackConfig, rng *rand.Rand, tr *tracer) (*instance, error) {
	st, err := newStack(cfg, rng, tr)
	if err != nil {
		return nil, err
	}
	inst := &instance{clients: runtime.GOMAXPROCS(0), stack: st, parses: true}
	sched := newSchedule(rng, len(st.tenants))

	load := func(tn *tenant) (*wire.Report, error) { return st.pageClient().LoadPage(tn.root) }
	// Warm-up: the first load of a tenant receives its pushes (the server
	// dedupes pushes for its lifetime), the second is the steady state
	// every later load must reproduce.
	refs := make([]pageRef, len(st.tenants))
	for i, tn := range st.tenants {
		for pass := 0; pass < 2; pass++ {
			rep, err := load(tn)
			if err != nil {
				st.close()
				return nil, err
			}
			ref, ok := digestPage(rep)
			if !ok {
				st.close()
				return nil, fmt.Errorf("%s: warm-up load failed (%d failed fetches)", tn.root.Host, rep.Failed)
			}
			refs[i] = ref
		}
	}
	if tr != nil {
		tr.reset()
	}

	inst.op = func(_ int, i int64) bool {
		ti := sched.tenant(i)
		tn := st.tenants[ti]
		start := time.Now()
		rep, err := load(tn)
		end := time.Now()
		if err != nil {
			return inst.tally.fail("%s: %v", tn.root.Host, err)
		}
		got, ok := digestPage(rep)
		if !ok {
			return inst.tally.fail("%s: %d failed fetches, deadline hit %v, first: %s", tn.root.Host, rep.Failed, rep.DeadlineHit, firstFailure(rep))
		}
		if got != refs[ti] {
			return inst.tally.fail("%s: load fetched %+v, reference %+v", tn.root.Host, got, refs[ti])
		}
		inst.tally.add(func(c *counts) {
			c.fetches += int64(len(rep.Fetches))
			c.pushStreams += int64(rep.Pushed)
			for _, pq := range rep.PushQuality {
				c.pushedBytes += pq.PushedBytes
			}
			c.retries += int64(rep.Retries)
			if rep.Degraded > 0 {
				c.degraded++
			}
		})
		if tr != nil {
			tracePage(tr, i, rep, start, end)
		}
		return true
	}
	inst.stop = func() error {
		st.close()
		return nil
	}
	return inst, nil
}

// tracePage records the op span of one page load and a fetch span per
// wire.FetchRecord.
func tracePage(tr *tracer, op int64, rep *wire.Report, start, end time.Time) {
	id := tr.add(span{layer: layerOp, name: rep.Root, op: op, start: start, end: end})
	for i := range rep.Fetches {
		f := &rep.Fetches[i]
		if f.Pushed && !f.Done.After(f.Start) {
			continue // an unclaimed push: no client fetch happened
		}
		tr.add(span{layer: layerFetch, name: f.URL, op: op, parent: id, start: f.Start, end: f.Done})
	}
}

// docHeader is what wire.Client sends with every request: its header budget.
var docHeader = map[string][]string{wire.HeaderDeadline: {"5000"}}

// startDocs brings up a document workload: op = one h2.ClientConn.RoundTrip
// for a tenant's root HTML on one of nproc persistent connections.
func startDocs(cfg stackConfig, rng *rand.Rand, tr *tracer) (*instance, error) {
	st, err := newStack(cfg, rng, tr)
	if err != nil {
		return nil, err
	}
	inst := &instance{clients: runtime.GOMAXPROCS(0), stack: st}
	sched := newSchedule(rng, len(st.tenants))
	conns := make([]*h2.ClientConn, inst.clients)
	closeConns := func() {
		for c, cc := range conns {
			if cc != nil {
				cc.Close()
				conns[c] = nil
			}
		}
	}
	// With a one-hour TTL every response must carry exactly the hints the
	// store returned at set-up; when tables churn only emptiness is an error.
	exact := cfg.ttl >= time.Hour

	inst.op = func(c int, i int64) bool {
		ti := sched.tenant(i)
		tn := st.tenants[ti]
		start := time.Now()
		resp, err := conns[c].RoundTrip(&h2.Request{Method: "GET", Scheme: "https",
			Authority: tn.root.Host, Path: "/", Header: docHeader})
		end := time.Now()
		if err != nil {
			return inst.tally.fail("%s: %v", tn.root.Host, err)
		}
		if resp.Status != 200 || len(resp.Body) != len(tn.body) {
			return inst.tally.fail("%s: status %d, %d body bytes, want 200 and %d", tn.root.Host, resp.Status, len(resp.Body), len(tn.body))
		}
		hs := hints.Parse(resp.Header)
		if len(hs) == 0 {
			return inst.tally.fail("%s: response carried no hints", tn.root.Host)
		}
		if exact && !sameHints(hs, st.refHints[ti]) {
			return inst.tally.fail("%s: response hints differ from the store's at set-up", tn.root.Host)
		}
		deg := resp.Header[wire.HeaderDegraded]
		inst.tally.add(func(c *counts) {
			c.fetches++
			if len(deg) > 0 {
				c.degraded++
				if deg[0] == wire.DegradedStaleHints {
					c.stale++
				}
			}
		})
		if tr != nil {
			id := tr.add(span{layer: layerOp, name: tn.root.String(), op: i, start: start, end: end})
			tr.add(span{layer: layerFetch, name: tn.root.String(), op: i, parent: id, start: start, end: end})
		}
		return true
	}
	// A connection lives for one segment. h2 keeps every stream, and with it
	// every response body, for the life of its connection, so connections
	// that lasted the whole run would grow the heap by a document per
	// request and drag every later segment's GC cost with it.
	inst.newSegment = func() error {
		closeConns()
		for c := range conns {
			if conns[c], err = st.docConn(); err != nil {
				return err
			}
		}
		return nil
	}
	// Warm-up: every tenant once per connection fills the body memo.
	err = inst.newSegment()
	for c := 0; err == nil && c < len(conns); c++ {
		for i := 0; i < len(st.tenants); i++ {
			if !inst.op(c, int64(i)) {
				err = fmt.Errorf("warm-up: %w", inst.tally.firstErr)
				break
			}
		}
	}
	if err != nil {
		closeConns()
		st.close()
		return nil, err
	}
	inst.tally.reset()
	if tr != nil {
		tr.reset()
	}
	inst.stop = func() error {
		closeConns()
		cps := st.close()
		if err := st.retrains.checkMonotone(); err != nil {
			return err
		}
		for _, cp := range cps {
			if cp.FlushErr != "" {
				return fmt.Errorf("%s: final flush: %s", cp.Origin, cp.FlushErr)
			}
		}
		return nil
	}
	return inst, nil
}

// sameHints reports whether two hint lists name the same URLs with the same
// priorities in the same order.
func sameHints(a, b []hints.Hint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sim-corpus: 12 sites under three policies.
const simSites = 12

var simPolicies = []runner.Policy{runner.HTTP1, runner.H2, runner.Vroom}

// simRef holds the reference pass's results, one per (site, policy) in
// corpus order; every later pass must reproduce their digests exactly.
type simRef struct {
	digests []string
	results []browser.Result
	// cacheStats reads the current pass's runner.Caches.
	cacheStats func() runner.CacheStats
}

// simDigest is what must repeat exactly for one (site, policy).
func simDigest(r *browser.Result) string {
	return fmt.Sprintf("%d/%d/%.6f/%d/%d/%d/%d", r.PLT, r.AFT, r.SpeedIndex, r.BytesFetched,
		r.HintsEmitted, r.HintsUsed, r.HintsMissed)
}

// startSim brings up the simulator workload: op = one runner.Run. A pass is
// every (site, policy) pair once in a seeded order, nproc workers sharing one
// runner.Caches that newSegment replaces.
func startSim(rng *rand.Rand, tr *tracer) (*instance, error) {
	sites := makeSites(rng, simSites)
	type item struct{ site, pol int }
	items := make([]item, 0, simSites*len(simPolicies))
	for s := range sites {
		for p := range simPolicies {
			items = append(items, item{s, p})
		}
	}
	// Which load of a site pays for its snapshots and training depends on
	// the order, so every pass takes a different seeded order and the
	// medians over passes do not hinge on one.
	sched := newSchedule(rng, len(items))
	profile := webpage.Profile{Device: device, UserID: 11}

	inst := &instance{clients: runtime.GOMAXPROCS(0)}
	var caches atomic.Pointer[runner.Caches]
	inst.newSegment = func() error {
		caches.Store(runner.NewCaches())
		return nil
	}
	inst.newSegment()
	ref := &simRef{digests: make([]string, len(items)), results: make([]browser.Result, len(items)),
		cacheStats: func() runner.CacheStats { return caches.Load().Stats() }}

	// run performs load i and returns its (site, policy) index in corpus
	// order, its result and, when traced, how many events it recorded.
	run := func(i int64) (k int, res browser.Result, events int, err error) {
		it := items[sched.tenant(i)]
		opts := runner.Options{Time: recordTime, Profile: profile, Nonce: 1, Caches: caches.Load()}
		var rec *obs.Recording
		if tr != nil {
			rec = &obs.Recording{}
			opts.Trace = rec
		}
		start := time.Now()
		res, err = runner.Run(sites[it.site], simPolicies[it.pol], opts)
		if tr != nil && err == nil {
			tr.add(span{layer: layerOp, name: sites[it.site].Name + "/" + string(simPolicies[it.pol]),
				op: i, start: start, end: time.Now()})
			events = rec.Len()
		}
		return it.site*len(simPolicies) + it.pol, res, events, err
	}
	// Reference pass, also the warm-up.
	for i := range items {
		k, res, _, err := run(int64(i))
		if err != nil {
			return nil, err
		}
		if res.NumFetched < res.NumRequired {
			return nil, fmt.Errorf("%s: fetched %d of %d required", res.Scheduler, res.NumFetched, res.NumRequired)
		}
		ref.results[k], ref.digests[k] = res, simDigest(&res)
	}
	inst.sim = ref
	if tr != nil {
		tr.reset()
	}

	inst.op = func(_ int, i int64) bool {
		k, res, events, err := run(i)
		if err != nil {
			return inst.tally.fail("%v", err)
		}
		if res.NumFetched < res.NumRequired {
			return inst.tally.fail("sim load fetched %d of %d required", res.NumFetched, res.NumRequired)
		}
		if d := simDigest(&res); d != ref.digests[k] {
			return inst.tally.fail("sim result %d: digest %s, reference %s", k, d, ref.digests[k])
		}
		inst.tally.add(func(c *counts) {
			c.wireBytes += res.BytesFetched
			c.traceEvents += int64(events)
		})
		return true
	}
	inst.stop = func() error { return nil }
	return inst, nil
}
