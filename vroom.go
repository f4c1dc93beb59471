// Package vroom is a faithful reproduction of "VROOM: Accelerating the
// Mobile Web with Server-Aided Dependency Resolution" (SIGCOMM 2017). It
// provides:
//
//   - a generative web-page corpus with real HTML/CSS/JS bodies, content
//     churn, ads, device variants, and cookie personalization;
//   - a deterministic mobile-browser and cellular-network simulation able
//     to load those pages under HTTP/1.1, HTTP/2, Vroom, and every ablation
//     the paper evaluates;
//   - Vroom itself: server-side offline+online dependency resolution,
//     dependency-hint headers (Table 1), push-set selection, and the staged
//     client scheduler;
//   - a wire-level stack (HTTP/2 with PUSH_PROMISE, HPACK, flow control,
//     over emulated links) that runs the same protocol for real;
//   - experiment drivers that regenerate every figure in the paper.
//
// This package is the public facade; the implementation lives in
// internal/... packages. Quick start:
//
//	site := vroom.NewSite("mynews", vroom.CategoryNews, 42)
//	res, err := vroom.LoadPage(site, vroom.PolicyVroom, vroom.LoadOptions{})
//	fmt.Println(res.PLT)
package vroom

import (
	"time"

	"vroom/internal/browser"
	"vroom/internal/core"
	"vroom/internal/experiments"
	"vroom/internal/hints"
	"vroom/internal/replay"
	"vroom/internal/runner"
	"vroom/internal/telemetry"
	"vroom/internal/urlutil"
	"vroom/internal/webpage"
	"vroom/internal/wire"
)

// Core page-model types.
type (
	// Site is a generative model of one website.
	Site = webpage.Site
	// Snapshot is one consistent materialization of a site.
	Snapshot = webpage.Snapshot
	// Resource is one fetchable object.
	Resource = webpage.Resource
	// Profile identifies a client device and user.
	Profile = webpage.Profile
	// Category is a site category.
	Category = webpage.Category
	// DeviceClass groups devices into Vroom's equivalence classes.
	DeviceClass = webpage.DeviceClass
	// URL is a normalized absolute URL.
	URL = urlutil.URL
)

// Site categories.
const (
	CategoryTop100 = webpage.Top100
	CategoryNews   = webpage.News
	CategorySports = webpage.Sports
)

// Device classes.
const (
	DevicePhoneSmall = webpage.PhoneSmall
	DevicePhoneLarge = webpage.PhoneLarge
	DeviceTablet     = webpage.Tablet
)

// NewSite builds a deterministic site model.
func NewSite(name string, cat Category, seed int64) *Site {
	return webpage.NewSite(name, cat, seed)
}

// GenerateCorpus builds a site corpus; see CorpusConfig.
func GenerateCorpus(cfg CorpusConfig) *Corpus { return webpage.Generate(cfg) }

// Corpus and its configuration.
type (
	// Corpus is a set of generated sites.
	Corpus = webpage.Corpus
	// CorpusConfig selects corpus composition.
	CorpusConfig = webpage.CorpusConfig
)

// Policy names a complete client+server configuration to load pages under.
type Policy = runner.Policy

// Policies (see DESIGN.md §4 for the figure each appears in).
const (
	PolicyHTTP1            = runner.HTTP1
	PolicyH2               = runner.H2
	PolicyH2PushAllStatic  = runner.H2PushAllStatic
	PolicyVroom            = runner.Vroom
	PolicyVroomFirstParty  = runner.VroomFirstParty
	PolicyPushAllFetchASAP = runner.PushAllFetchASAP
	PolicyPushHighNoHints  = runner.PushHighNoHints
	PolicyPushAllNoHints   = runner.PushAllNoHints
	PolicyDepsFromPrevLoad = runner.DepsFromPrevLoad
	PolicyOfflineOnly      = runner.OfflineOnly
	PolicyOnlineOnly       = runner.OnlineOnly
	PolicyPolaris          = runner.Polaris
	PolicyCPUOnly          = runner.CPUOnly
	PolicyNetworkOnly      = runner.NetworkOnly
)

// AllPolicies lists every runnable policy.
func AllPolicies() []Policy { return runner.AllPolicies() }

// LoadOptions configure one simulated page load.
type LoadOptions = runner.Options

// LoadResult summarizes a finished load.
type LoadResult = browser.Result

// Cache is a browser HTTP cache reusable across loads.
type Cache = browser.Cache

// NewCache returns an empty browser cache.
func NewCache() *Cache { return browser.NewCache() }

// LoadPage executes one simulated page load of site under a policy.
func LoadPage(site *Site, pol Policy, opts LoadOptions) (LoadResult, error) {
	return runner.Run(site, pol, opts)
}

// Resolver is Vroom's server-side dependency resolver.
type Resolver = core.Resolver

// ResolverConfig selects the resolution strategy.
type ResolverConfig = core.ResolverConfig

// NewResolver builds a resolver; see DefaultResolverConfig.
func NewResolver(cfg ResolverConfig) *Resolver { return core.NewResolver(cfg) }

// DefaultResolverConfig is the full Vroom strategy (3 hourly offline loads
// plus online HTML analysis).
func DefaultResolverConfig() ResolverConfig { return core.DefaultResolverConfig() }

// Hint types (Table 1).
type (
	// Hint is one dependency hint.
	Hint = hints.Hint
	// HintPriority is a hint's priority class.
	HintPriority = hints.Priority
)

// Hint priorities.
const (
	HintHigh = hints.High
	HintSemi = hints.Semi
	HintLow  = hints.Low
)

// FormatHints renders hints as HTTP headers; ParseHints inverts it.
func FormatHints(hs []Hint) map[string][]string { return hints.Format(hs) }

// ParseHints extracts hints from HTTP headers.
func ParseHints(h map[string][]string) []Hint { return hints.Parse(h) }

// Experiment access: every figure in the paper.
type (
	// ExperimentOptions scale an experiment run.
	ExperimentOptions = experiments.Options
	// ExperimentResult is one reproduced figure.
	ExperimentResult = experiments.Result
	// Dist is a sample distribution with percentile accessors.
	Dist = telemetry.Dist
)

// DefaultExperimentOptions reproduces the paper's scale; quick options for
// smoke runs.
func DefaultExperimentOptions() ExperimentOptions { return experiments.DefaultOptions() }

// QuickExperimentOptions is a scaled-down configuration.
func QuickExperimentOptions() ExperimentOptions { return experiments.QuickOptions() }

// ExperimentIDs lists the reproducible figures.
func ExperimentIDs() []string { return experiments.IDs() }

// RunExperiment reproduces one figure by ID ("fig01".."fig21").
func RunExperiment(id string, o ExperimentOptions) (*ExperimentResult, error) {
	run, ok := experiments.Registry[id]
	if !ok {
		return nil, errUnknownExperiment(id)
	}
	return run(o)
}

type errUnknownExperiment string

func (e errUnknownExperiment) Error() string {
	return "vroom: unknown experiment " + string(e) + " (see ExperimentIDs)"
}

// Wire-level (real HTTP/2) components.
type (
	// Archive is a recorded page for replay.
	Archive = replay.Archive
	// WireServer replays an archive over HTTP/2 with hints and push.
	WireServer = wire.Server
	// WireServerConfig controls the wire server.
	WireServerConfig = wire.ServerConfig
	// WireClient loads pages over real HTTP/2 connections.
	WireClient = wire.Client
	// WireReport summarizes a wire page load.
	WireReport = wire.Report
)

// RecordSnapshot archives a materialized page for wire replay.
func RecordSnapshot(sn *Snapshot) *Archive { return replay.FromSnapshot(sn) }

// NewWireServer builds a replay server; resolver may be nil when hints are
// disabled.
func NewWireServer(a *Archive, r *Resolver, d DeviceClass, cfg WireServerConfig) *WireServer {
	return wire.NewServer(a, r, d, cfg)
}

// TrainResolver trains a resolver the way a deployment's periodic offline
// loads would.
func TrainResolver(site *Site, at time.Time, device DeviceClass) *Resolver {
	return wire.TrainResolver(site, at, device)
}
