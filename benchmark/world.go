package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"time"

	"vroom/internal/core"
	"vroom/internal/h1"
	"vroom/internal/h2"
	"vroom/internal/hints"
	"vroom/internal/hintstore"
	"vroom/internal/hintstore/persist"
	"vroom/internal/netem"
	"vroom/internal/overload"
	"vroom/internal/replay"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

// recordTime is the instant every archive is recorded at. It stays fixed:
// the offline stable set is an intersection over the three hourly loads
// before it, so a seed-derived time that crossed a day boundary would drop
// the daily resources from the hints and change the work per op.
var recordTime = time.Date(2017, 8, 21, 12, 0, 0, 0, time.UTC)

const (
	device = webpage.PhoneSmall
	// skeletonSeed fixes every tenant's page skeleton (resource counts,
	// sizes, dependency structure). Page weight varies ±20% between
	// skeletons, so a seed-derived skeleton would move every per-op metric
	// by more than its bound from one seed to the next; -seed instead draws
	// what leaves the work per op unchanged: tenant names (and so every
	// first-party URL), the load nonce and user (volatile and personalized
	// URLs) and the order tenants are requested in.
	skeletonSeed = 20170821
)

// gateSlots sizes the admission gate so that no workload can fill it. At
// vroom-server's default of 64, two concurrent staged page loads do fill it
// (handlers hold their slot while a body waits for flow-control window): the
// transport then refuses streams, and about one load in 8000 exhausts its
// retry budget and fails. The benchmark's workloads must not fail, so the
// gate's acquire/release cost is paid on every request but it never sheds.
const gateSlots = 4096

// categories is the 3:2:3 News/Sports/Top100 mix, repeated over the tenant
// index.
var categories = [8]webpage.Category{
	webpage.News, webpage.News, webpage.News,
	webpage.Sports, webpage.Sports,
	webpage.Top100, webpage.Top100, webpage.Top100,
}

// tenant is one generated site as the program under test receives it: an
// archive to replay and a trainer for the hint store.
type tenant struct {
	site    *webpage.Site
	root    urlutil.URL
	body    string // root document body
	archive *replay.Archive
}

// makeSites generates n sites whose names derive from rng. Names have a
// fixed length so header and body bytes do not depend on the seed.
func makeSites(rng *rand.Rand, n int) []*webpage.Site {
	sites := make([]*webpage.Site, n)
	for i := range sites {
		name := fmt.Sprintf("t%02d%06x", i, rng.Intn(1<<24))
		sites[i] = webpage.NewSite(name, categories[i%len(categories)], skeletonSeed+int64(i))
	}
	return sites
}

// makeTenants records one archive per generated site.
func makeTenants(rng *rand.Rand, n int) []*tenant {
	profile := webpage.Profile{Device: device, UserID: 1 + rng.Int63n(1<<20)}
	nonce := 1 + uint64(rng.Int63n(1<<30))
	tenants := make([]*tenant, n)
	for i, site := range makeSites(rng, n) {
		a := replay.FromSnapshot(site.Snapshot(recordTime, profile, nonce))
		root := site.RootURL()
		rec, ok := a.Lookup(a.RootURL)
		if !ok {
			panic("benchmark: archive without root record: " + a.RootURL)
		}
		tenants[i] = &tenant{site: site, root: root, body: rec.Body, archive: a}
	}
	return tenants
}

// stackConfig selects how the serving stack of one wire workload is built.
type stackConfig struct {
	tenants  int
	h1       bool // serve HTTP/1.1 (no push) instead of HTTP/2
	push     bool
	acct     bool
	durable  bool // hintstore.NewDurable with FsyncAlways in a temp dir
	ttl      time.Duration
	maxStale time.Duration
	workers  int
}

// stack is the program under test: the replay server behind its admission
// gate and hint store, listening on a zero-delay in-memory link, assembled
// the way cmd/vroom-server's defaults do.
type stack struct {
	cfg      stackConfig
	tenants  []*tenant
	store    *hintstore.Store
	srv      *wire.Server
	h1srv    *h1.Server
	link     *netem.Listener
	stateDir string
	trace    *tracer // nil on the untraced stack
	retrains *retrainLog
	// refHints are the hints a direct Store.Lookup returned per tenant at
	// set-up: what every document response must parse back to.
	refHints [][]hints.Hint
}

// newStack generates the tenants from rng and brings the server up. With a
// non-nil tracer the harness wrappers are installed: counting connections,
// timed handlers.
func newStack(cfg stackConfig, rng *rand.Rand, tr *tracer) (*stack, error) {
	s := &stack{cfg: cfg, tenants: makeTenants(rng, cfg.tenants), trace: tr, retrains: &retrainLog{}}

	storeCfg := hintstore.Config{TTL: cfg.ttl, MaxStale: cfg.maxStale, Workers: cfg.workers}
	if cfg.durable {
		dir, err := os.MkdirTemp(outDir(), "state-")
		if err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
		s.stateDir = dir
		storeCfg.Persist = persist.Options{Dir: dir, Fsync: persist.FsyncAlways}
		store, _, err := hintstore.NewDurable(storeCfg)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("durable store: %w", err)
		}
		s.store = store
	} else {
		s.store = hintstore.New(storeCfg)
	}

	archives := make([]*replay.Archive, len(s.tenants))
	for i, tn := range s.tenants {
		archives[i] = tn.archive
		trainer := hintstore.SiteTrainer(tn.site, recordTime, device, core.DefaultResolverConfig())
		if err := s.store.Register(tn.root.Host, device, s.retrains.wrap(tn.root.Host, trainer)); err != nil {
			s.close()
			return nil, fmt.Errorf("register %s: %w", tn.root.Host, err)
		}
		hs, res := s.store.Lookup(tn.root, tn.body)
		if res.Source != hintstore.Fresh || len(hs) == 0 {
			s.close()
			return nil, fmt.Errorf("%s: first lookup %v with %d hints", tn.root.Host, res.Source, len(hs))
		}
		s.refHints = append(s.refHints, hs)
	}

	s.srv = wire.NewServer(replay.Merge(archives...), nil, device,
		wire.ServerConfig{SendHints: true, Push: cfg.push})
	s.srv.Store = s.store
	s.srv.Gate = overload.NewGate(overload.Config{MaxConcurrent: gateSlots})
	if cfg.acct {
		s.srv.Acct = wire.NewAccountant(wire.AccountingConfig{Store: s.store})
	}

	s.link = netem.Listen(netem.LinkConfig{})
	if cfg.h1 {
		var h h1.Handler = s.srv
		if tr != nil {
			h = timedH1{inner: s.srv, tr: tr}
		}
		s.h1srv = &h1.Server{Handler: h, Overloaded: s.srv.Gate.Saturated}
		go s.h1srv.Serve(s.link)
	} else {
		if tr != nil {
			s.srv.H2().Handler = timedH2{inner: s.srv, tr: tr}
		}
		go s.srv.H2().Serve(s.link)
	}
	return s, nil
}

// dial opens one client connection to the server, counted when traced.
func (s *stack) dial() (net.Conn, error) {
	nc, err := s.link.Dial()
	if err != nil || s.trace == nil {
		return nc, err
	}
	s.trace.dials.Add(1)
	return &countingConn{Conn: nc, tr: s.trace}, nil
}

// pageClient returns a fresh staged client for one page load.
func (s *stack) pageClient() *wire.Client {
	if !s.cfg.h1 {
		return &wire.Client{Staged: true, Dial: func(string) (net.Conn, error) { return s.dial() }}
	}
	return &wire.Client{Staged: true, DialOrigin: func(origin string) (wire.OriginConn, error) {
		u, err := urlutil.Parse(origin + "/")
		if err != nil {
			return nil, err
		}
		return &h1.Pool{Authority: u.Host, Dial: s.dial}, nil
	}}
}

// docConn opens one persistent HTTP/2 connection for document requests.
func (s *stack) docConn() (*h2.ClientConn, error) {
	nc, err := s.dial()
	if err != nil {
		return nil, err
	}
	return h2.NewClientConn(nc)
}

// parsedMB is, per parsed type, the mean MB of bodies one tenant's page holds.
func (s *stack) parsedMB() map[string]float64 {
	out := make(map[string]float64)
	for _, tn := range s.tenants {
		for i := range tn.archive.Records {
			if rec := &tn.archive.Records[i]; rec.Body != "" {
				out[rec.Type] += float64(len(rec.Body)) / 1e6 / float64(len(s.tenants))
			}
		}
	}
	return out
}

// close stops the server, drains the store and removes durable state. It
// returns the store's final checkpoints.
func (s *stack) close() []hintstore.Checkpoint {
	if s.link != nil {
		s.link.Close()
	}
	if s.h1srv != nil {
		s.h1srv.Close()
	} else if s.srv != nil {
		s.srv.H2().Close()
	}
	if s.srv != nil {
		s.srv.Acct.Flush()
	}
	cps := s.store.Drain(2 * time.Second)
	if s.stateDir != "" {
		os.RemoveAll(s.stateDir)
	}
	return cps
}

// outDir creates and returns the directory trace files and durable state go
// to: by default benchmark/out under the directory the command runs from,
// which .gitignore names.
func outDir() string {
	if err := os.MkdirAll(outPath, 0o755); err != nil {
		fatal("create %s: %v", outPath, err)
	}
	return outPath
}
