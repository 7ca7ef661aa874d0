// Package netcluster is a network-aware web-client clustering library: a
// complete reproduction of Krishnamurthy & Wang, "On Network-Aware
// Clustering of Web Clients" (SIGCOMM 2000).
//
// The central operation groups the client IP addresses found in a web
// server log into clusters — sets of clients that are topologically close
// and likely under common administrative control — by longest-prefix
// matching each address against a table merged from BGP routing-table
// snapshots:
//
//	world, _ := netcluster.GenerateWorld(netcluster.DefaultWorldConfig())
//	table := netcluster.CollectAndMerge(netcluster.NewBGPSim(world, netcluster.DefaultBGPSimConfig()))
//	log, _ := netcluster.GenerateLog(world, netcluster.NaganoProfile(0.02))
//	result := netcluster.ClusterLog(log, netcluster.NetworkAware{Table: table})
//
// Around that core the package exposes the rest of the paper's pipeline
// that the programs under examples/ use: the simple /24 baseline,
// validation by reverse-DNS sampling, spider and proxy detection, and a
// trace-driven simulation of per-cluster proxy caches — over a synthetic
// Internet (ground-truth networks, BGP vantage views, DNS) standing in
// for the 1999 data sources the paper consumed, so every run is
// reproducible offline.
//
// The implementation lives in internal packages; this package re-exports
// what the examples need as functions and type aliases. The services and
// tools under cmd/ use the internal packages directly.
package netcluster

import (
	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/detect"
	"github.com/netaware/netcluster/internal/dnssim"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/validate"
	"github.com/netaware/netcluster/internal/weblog"
	"github.com/netaware/netcluster/internal/websim"
)

// Addressing primitives.
type (
	// Addr is an IPv4 address.
	Addr = netutil.Addr
	// Prefix is an IPv4 network prefix (address + mask length).
	Prefix = netutil.Prefix
)

// Table is the prefix/netmask table merged from routing-table snapshots
// that network-aware clustering consumes.
type Table = bgp.Merged

// Web server logs.
type (
	// Log is an in-memory access log.
	Log = weblog.Log
	// LogConfig parameterizes synthetic log generation.
	LogConfig = weblog.GenConfig
)

// Clustering.
type (
	// Clusterer assigns a client address to its cluster prefix.
	Clusterer = cluster.Clusterer
	// NetworkAware is the paper's method: longest-prefix match against a
	// merged routing table.
	NetworkAware = cluster.NetworkAware
	// Simple is the first-24-bits baseline.
	Simple = cluster.Simple
	// Cluster is one identified client cluster.
	Cluster = cluster.Cluster
	// Result is the outcome of clustering a log.
	Result = cluster.Result
)

// ClusterLog groups every client in l according to c.
func ClusterLog(l *Log, c Clusterer) *Result { return cluster.ClusterLog(l, c) }

// ValidationReport aggregates sampled validation verdicts (Table 3).
type ValidationReport = validate.Report

// SampleClusters draws a deterministic random sample of clusters for
// validation; the paper samples 1%.
func SampleClusters(clusters []*Cluster, frac float64, seed int64) []*Cluster {
	return validate.Sample(clusters, frac, seed)
}

// Detection of spiders and proxies.
type (
	// Finding is one suspected spider or proxy.
	Finding = detect.Finding
	// DetectConfig tunes the detector.
	DetectConfig = detect.Config
)

// Detection outcome kinds and confidence levels.
const (
	KindSpider          = detect.Spider
	ConfidenceConfirmed = detect.Confirmed
)

// DefaultDetectConfig returns thresholds reproducing the paper's examples.
func DefaultDetectConfig() DetectConfig { return detect.DefaultConfig() }

// DetectRobots scans a clustering result for spiders and proxies.
func DetectRobots(res *Result, cfg DetectConfig) []Finding { return detect.Detect(res, cfg) }

// Eliminate returns a copy of the log without requests from the given
// clients (the paper's pre-caching cleanup).
func Eliminate(l *Log, clients map[Addr]bool) *Log { return detect.Eliminate(l, clients) }

// FindingClients collects finding clients in a form Eliminate accepts.
func FindingClients(fs []Finding, kinds ...detect.Kind) map[Addr]bool {
	return detect.FindingClients(fs, kinds...)
}

// Web caching simulation.
type (
	// SimConfig parameterizes a caching simulation run.
	SimConfig = websim.Config
	// SimOutcome aggregates one run's results.
	SimOutcome = websim.Outcome
)

// DefaultSimConfig mirrors the paper's setup: 1 h TTL, PCV on, 10-access
// URL floor.
func DefaultSimConfig() SimConfig { return websim.DefaultConfig() }

// Simulate replays a clustered log through per-cluster proxy caches.
func Simulate(res *Result, cfg SimConfig) SimOutcome { return websim.Simulate(res, cfg) }

// SimulateSweep runs Simulate across proxy cache sizes (Figure 11).
func SimulateSweep(res *Result, cfg SimConfig, sizes []int64) []SimOutcome {
	return websim.Sweep(res, cfg, sizes)
}

// Synthetic world: the offline substitute for the paper's live data
// sources. Generate a world once, derive BGP views, logs and DNS from it.
type (
	// World is a generated ground-truth Internet.
	World = inet.Internet
	// WorldConfig controls world generation.
	WorldConfig = inet.Config
	// BGPSim derives vantage-point views from a world.
	BGPSim = bgpsim.Sim
	// BGPSimConfig controls announcement behaviour.
	BGPSimConfig = bgpsim.Config
	// Resolver simulates reverse DNS over a world.
	Resolver = dnssim.Resolver
)

// DefaultWorldConfig returns the scale used by the headline experiments.
func DefaultWorldConfig() WorldConfig { return inet.DefaultConfig() }

// GenerateWorld builds a deterministic synthetic Internet.
func GenerateWorld(cfg WorldConfig) (*World, error) { return inet.Generate(cfg) }

// NewBGPSim fixes a world's route-announcement behaviour.
func NewBGPSim(w *World, cfg BGPSimConfig) *BGPSim { return bgpsim.New(w, cfg) }

// DefaultBGPSimConfig mirrors the paper's observed error rates.
func DefaultBGPSimConfig() BGPSimConfig { return bgpsim.DefaultConfig() }

// CollectAndMerge generates every standard view plus registry dumps and
// merges them into a clustering table.
func CollectAndMerge(s *BGPSim) *Table { return bgpsim.Merge(s.Collect()) }

// GenerateLog synthesizes a server log over a world.
func GenerateLog(w *World, cfg LogConfig) (*Log, error) { return weblog.Generate(w, cfg) }

// NaganoProfile returns the paper's primary trace shape at the given
// scale (1.0 = the paper's published counts). ApacheProfile and
// SunProfile cover two of the other traces.
func NaganoProfile(scale float64) LogConfig { return weblog.Nagano(scale) }

// ApacheProfile returns the large popular-site trace shape.
func ApacheProfile(scale float64) LogConfig { return weblog.Apache(scale) }

// SunProfile returns the trace with the canonical spider and proxy.
func SunProfile(scale float64) LogConfig { return weblog.Sun(scale) }

// NewResolver returns a reverse-DNS resolver over a world.
func NewResolver(w *World) *Resolver { return dnssim.New(w) }

// ValidateNslookup runs the DNS suffix validation over sampled clusters.
func ValidateNslookup(w *World, r *Resolver, sampled []*Cluster) ValidationReport {
	return validate.Nslookup(w, r, sampled)
}
