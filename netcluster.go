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
//	table := netcluster.NewTable()
//	table.Add(snapshot)                   // from netcluster.ReadSnapshot
//	log, _ := netcluster.ReadLog(f, "nagano")
//	result := netcluster.ClusterLog(log, netcluster.NetworkAware{Table: table})
//
// Around that core the package exposes the paper's full pipeline:
//
//   - baseline clusterers (Simple /24 and Classful) for comparison;
//   - validation by DNS-name and traceroute path-suffix sampling;
//   - self-correction (merge/split/absorb) driven by probe sampling;
//   - spider and proxy detection from per-cluster access patterns;
//   - a trace-driven web-caching simulation with per-cluster proxies
//     running LRU + piggyback cache validation;
//   - a synthetic Internet (ground-truth networks, BGP vantage views with
//     aggregation and daily churn, DNS, traceroute) standing in for the
//     1999 data sources the paper consumed, so every experiment is
//     reproducible offline.
//
// The implementation lives in internal packages; this package re-exports
// the supported surface as type aliases, so downstream code imports only
// github.com/netaware/netcluster.
package netcluster

import (
	"context"
	"io"
	"net/http"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/detect"
	"github.com/netaware/netcluster/internal/dnssim"
	"github.com/netaware/netcluster/internal/httpproxy"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/obsv"
	"github.com/netaware/netcluster/internal/obsv/sink"
	"github.com/netaware/netcluster/internal/placement"
	"github.com/netaware/netcluster/internal/selfcorrect"
	"github.com/netaware/netcluster/internal/shard"
	"github.com/netaware/netcluster/internal/tracesim"
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

// ParseAddr parses a dotted-quad IPv4 address.
func ParseAddr(s string) (Addr, error) { return netutil.ParseAddr(s) }

// ParsePrefix parses CIDR "a.b.c.d/len" notation.
func ParsePrefix(s string) (Prefix, error) { return netutil.ParsePrefix(s) }

// MustParseAddr is ParseAddr for trusted constants; it panics on error.
func MustParseAddr(s string) Addr { return netutil.MustParseAddr(s) }

// MustParsePrefix is ParsePrefix for trusted constants; it panics on error.
func MustParsePrefix(s string) Prefix { return netutil.MustParsePrefix(s) }

// Routing-table snapshots and the merged prefix table.
type (
	// Snapshot is one routing-table or network-registry dump.
	Snapshot = bgp.Snapshot
	// Entry is one snapshot row.
	Entry = bgp.Entry
	// SourceKind distinguishes BGP tables from registry network dumps.
	SourceKind = bgp.SourceKind
	// Table is the merged prefix/netmask table clustering consumes.
	Table = bgp.Merged
)

// Snapshot source kinds.
const (
	SourceBGP         = bgp.SourceBGP
	SourceNetworkDump = bgp.SourceNetworkDump
)

// NewTable returns an empty merged prefix table; Add snapshots to it.
func NewTable() *Table { return bgp.NewMerged() }

// CompiledTable is an immutable, read-optimized snapshot of a Table: the
// primary/secondary precedence is folded into a single flat-array
// stride-8 structure, so one lookup replaces two tree walks and any
// number of goroutines can read it without locks. Build one with
// Table.Compile (or NetworkAware.Compile) after the table is fully
// populated.
type CompiledTable = bgp.Compiled

// TableMatch is one longest-prefix-match answer from a CompiledTable:
// the winning prefix and which source class supplied it. The zero
// TableMatch (Prefix.IsZero()) means no prefix covered the address.
type TableMatch = bgp.Match

// Table snapshots: the versioned, checksummed on-disk form of a
// CompiledTable. Save once (or with `tabletool compile`), then boot any
// process from the file — OpenTable maps it zero-copy where the platform
// allows and falls back to a validated copying load elsewhere, and
// clusterd's -table-snapshot flag serves straight from one.
type TableFile = bgp.TableFile

// SaveTable atomically writes c's snapshot to path.
func SaveTable(path string, c *CompiledTable) error { return bgp.SaveTable(path, c) }

// OpenTable opens a table snapshot, preferring the zero-copy mmap load.
// Close the returned TableFile when the table is no longer referenced.
func OpenTable(path string) (*TableFile, error) { return bgp.OpenTable(path) }

// MarshalTable serializes c to its snapshot wire form. Output is
// deterministic: the same compiled table always marshals to the same
// bytes.
func MarshalTable(c *CompiledTable) ([]byte, error) { return bgp.MarshalTable(c) }

// ReadTable decodes a marshaled snapshot with full checksum and
// structural validation; corrupt or version-skewed input returns an
// error, never a panic.
func ReadTable(data []byte) (*CompiledTable, error) { return bgp.ReadTable(data) }

// NewStaticChurnTable wraps a snapshot-loaded CompiledTable as a
// generation-0 ChurnTable with no delta stream behind it — the
// serving surface of a snapshot-booted service.
func NewStaticChurnTable(c *CompiledTable) *ChurnTable { return churn.NewStatic(c) }

// Online churn: a long-running table that absorbs BGP announce/withdraw
// deltas without recompiling, publishing each new generation RCU-style
// (immutable CompiledTable snapshots behind an atomic pointer). This is
// the substrate of the clusterd service.
type (
	// ChurnTable is a concurrently-readable table under a delta stream.
	ChurnTable = churn.Table
	// Delta is one batch of announce/withdraw operations.
	Delta = bgp.Delta
	// Op is a single announce or withdraw.
	Op = bgp.Op
	// SwapStats classifies one generation swap's effect on cluster
	// identity: carryover, splits, merges, moves, gains, losses.
	SwapStats = churn.SwapStats
	// ChurnConfig parameterizes the synthetic bursty churn schedule.
	ChurnConfig = bgpsim.ChurnConfig
	// ChurnGen draws bursty announce/withdraw batches over a snapshot's
	// prefix universe.
	ChurnGen = bgpsim.ChurnGen
)

// NewChurnTable seeds an online table from a merged table; Apply deltas
// to advance generations while readers keep using Lookup.
func NewChurnTable(m *Table) *ChurnTable { return churn.New(m) }

// DiffSnapshots computes the delta turning old's prefix set into new's —
// the offline analogue of a live churn feed.
func DiffSnapshots(old, new *Snapshot) Delta { return bgpsim.Diff(old, new) }

// DefaultChurnConfig is a ~1% mean batch schedule with occasional bursts.
func DefaultChurnConfig() ChurnConfig { return bgpsim.DefaultChurnConfig() }

// NewChurnGen builds a churn generator over base's prefix universe.
func NewChurnGen(base *Snapshot, cfg ChurnConfig) *ChurnGen { return bgpsim.NewChurnGen(base, cfg) }

// Sharded cluster: the multi-node deployment of the churn table. A
// compiler node sequences every delta onto an HTTP feed, follower nodes
// keep their shard's slice of the table in generation lockstep, and a
// router fans batch clustering out across the shard map and merges the
// answers back into input order — degrading per-shard, never answering
// wrong. See cmd/clusterd (-feed-serve, -feed, -shard-index) and
// cmd/clusterrouter for the deployable form.
type (
	// ShardMap tiles the 256 /8 blocks across a cluster's nodes.
	ShardMap = shard.Map
	// ShardInfo is one node's contiguous block range and base URL.
	ShardInfo = shard.Info
	// DeltaFeed sequences and serves a table's deltas over HTTP, with a
	// catch-up snapshot for joiners that outrun the retained log.
	DeltaFeed = shard.Feed
	// DeltaFollower tails a DeltaFeed, keeping a local ChurnTable in
	// lockstep (optionally filtered to a shard's prefix range).
	DeltaFollower = shard.Follower
	// ShardRouter fans batches across the map and merges input-order.
	ShardRouter = shard.Router
	// ShardRouterConfig configures a ShardRouter over a ShardMap.
	ShardRouterConfig = shard.RouterConfig
	// MetricsAggregator federates the shard nodes' metric registries
	// behind a router: per-shard labeled series plus cluster-wide
	// quantiles merged exactly from the shards' log2 buckets.
	MetricsAggregator = shard.Aggregator
	// TableMeta is the snapshot sidecar recording a table's generation
	// and delta-stream position, enabling warm starts.
	TableMeta = bgp.TableMeta
)

// NewShardMap tiles the /8 blocks evenly across n shards (version 1).
func NewShardMap(n int) *ShardMap { return shard.NewMap(n) }

// NewDeltaFeed wraps a churn table as the cluster's sequenced delta
// source; maxLog bounds the retained catch-up log (0: default).
func NewDeltaFeed(t *ChurnTable, maxLog int) *DeltaFeed { return shard.NewFeed(t, maxLog) }

// JoinDeltaFeed seeds a follower from a feed's snapshot endpoint and
// returns it ready to poll; keep (optional) restricts the local table
// to a shard's range.
func JoinDeltaFeed(base string, client *http.Client, keep func(Prefix) bool) (*DeltaFollower, error) {
	return shard.Join(base, client, keep)
}

// NewShardRouter validates the map (every shard needs an Addr) and
// returns the fan-out router over it.
func NewShardRouter(cfg ShardRouterConfig) (*ShardRouter, error) { return shard.NewRouter(cfg) }

// WarmStartChurnTable rebuilds a live churn table around a snapshot-
// loaded CompiledTable at generation gen — the boot path that lets a
// restarted service rejoin the delta stream instead of serving a
// frozen table. keep (optional) restricts it to a shard's range.
func WarmStartChurnTable(c *CompiledTable, keep func(Prefix) bool, gen uint64) *ChurnTable {
	return churn.NewFromCompiled(c, keep, gen)
}

// SaveTableMeta writes path's .meta sidecar (atomic rename).
func SaveTableMeta(path string, m TableMeta) error { return bgp.SaveTableMeta(path, m) }

// LoadTableMeta reads path's .meta sidecar; ok=false means no sidecar
// (a pre-sidecar snapshot), which is not an error.
func LoadTableMeta(path string) (m TableMeta, ok bool, err error) { return bgp.LoadTableMeta(path) }

// ReadSnapshot parses a snapshot dump (see internal/bgp for the format;
// prefix fields accept CIDR, dotted-netmask, and classful notations).
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return bgp.ReadSnapshot(r) }

// ParsePrefixEntry parses a single prefix field in any of the three
// 1999-era dump notations.
func ParsePrefixEntry(s string) (Prefix, error) { return bgp.ParsePrefixEntry(s) }

// Web server logs.
type (
	// Log is an in-memory access log.
	Log = weblog.Log
	// Request is one log line.
	Request = weblog.Request
	// Resource is one distinct URL with its size and change behaviour.
	Resource = weblog.Resource
)

// ReadLog parses a Common Log Format (plain or combined) stream.
func ReadLog(r io.Reader, name string) (*Log, error) { return weblog.ReadCLF(r, name) }

// WriteLog serializes a log in combined log format.
func WriteLog(w io.Writer, l *Log) error { return weblog.WriteCLF(w, l) }

// Clustering.
type (
	// Clusterer assigns a client address to its cluster prefix.
	Clusterer = cluster.Clusterer
	// BatchClusterer resolves many addresses in one call with the same
	// answers as per-address Cluster; the parallel engines detect it and
	// route their per-shard client sets through the batch lookup kernel.
	// NetworkAware implements it.
	BatchClusterer = cluster.BatchClusterer
	// NetworkAware is the paper's method: longest-prefix match against a
	// merged routing table.
	NetworkAware = cluster.NetworkAware
	// Simple is the first-24-bits baseline.
	Simple = cluster.Simple
	// Classful is the address-class baseline.
	Classful = cluster.Classful
	// Cluster is one identified client cluster.
	Cluster = cluster.Cluster
	// Result is the outcome of clustering a log.
	Result = cluster.Result
	// Thresholding is the busy-cluster cut of Section 4.1.3.
	Thresholding = cluster.Thresholding
)

// ClusterLog groups every client in l according to c.
func ClusterLog(l *Log, c Clusterer) *Result { return cluster.ClusterLog(l, c) }

// StreamResult is the single-pass clustering outcome for streamed logs.
type StreamResult = cluster.StreamResult

// ClusterStream clusters a Common Log Format stream in one pass and
// constant memory — for logs too large to load, or for the paper's
// real-time clustering of very recent log data.
func ClusterStream(r io.Reader, c Clusterer) (*StreamResult, error) {
	return cluster.ClusterStream(r, c)
}

// ParallelOptions sizes ClusterStreamParallel; the zero value uses
// GOMAXPROCS workers.
type ParallelOptions = cluster.ParallelOptions

// ClusterStreamParallel is ClusterStream with the parse spread across
// workers, each taking newline-aligned chunks of the stream into an
// accumulator of its own before one merge. The StreamResult is identical
// to ClusterStream's. The Clusterer must be safe for concurrent use
// (NetworkAware, Simple and Classful all are; compile a NetworkAware
// table first for the fastest lock-free lookups).
func ClusterStreamParallel(r io.Reader, c Clusterer, opts ParallelOptions) (*StreamResult, error) {
	return cluster.ClusterStreamParallel(r, c, opts)
}

// Bounded-memory (firehose) clustering: the Section 4.1.3 busy-cluster
// view computed in O(K + sketch) space however many clusters the
// stream touches — K exact heavy hitters via a space-saving summary,
// the tail answerable within ε·N via a conservative count-min sketch.
type (
	// BoundedConfig sizes a bounded accumulator (K, capacity, ε, δ, spill).
	BoundedConfig = cluster.BoundedConfig
	// BoundedAccumulator is the fixed-memory cluster accumulator itself.
	BoundedAccumulator = cluster.BoundedAccumulator
	// BusyCluster is one entry of a bounded accumulator's top-K report.
	BusyCluster = cluster.BusyCluster
	// SpillPolicy selects what happens to evicted clusters.
	SpillPolicy = cluster.SpillPolicy
	// BoundedStreamResult is one bounded pass's outcome over a CLF stream.
	BoundedStreamResult = cluster.BoundedStreamResult
)

// Spill policies for BoundedConfig.
const (
	SpillSketch = cluster.SpillSketch
	SpillDrop   = cluster.SpillDrop
)

// NewBoundedAccumulator builds an empty bounded accumulator; the zero
// BoundedConfig gets serviceable defaults.
func NewBoundedAccumulator(cfg BoundedConfig) (*BoundedAccumulator, error) {
	return cluster.NewBoundedAccumulator(cfg)
}

// ClusterStreamBounded clusters a Common Log Format stream in one pass
// and *fixed* memory — unlike ClusterStream, whose per-cluster map
// grows with the number of distinct clusters, this holds only the
// configured summary however long the stream runs. The price is
// exactness outside the top K: evicted clusters answer within the
// sketch error bound instead of precisely.
func ClusterStreamBounded(r io.Reader, c Clusterer, cfg BoundedConfig) (*BoundedStreamResult, error) {
	return cluster.ClusterStreamBounded(r, c, cfg)
}

// Validation.
type (
	// ValidationReport aggregates sampled validation verdicts (Table 3).
	ValidationReport = validate.Report
	// ClusterVerdict is the validation outcome for one cluster.
	ClusterVerdict = validate.ClusterVerdict
)

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
	KindProxy           = detect.Proxy
	ConfidenceConfirmed = detect.Confirmed
	ConfidenceSuspected = detect.Suspected
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
	// ProxyOutcome reports one cluster proxy's performance.
	ProxyOutcome = websim.ProxyOutcome
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

// MultiOutcome aggregates a multi-server simulation run.
type MultiOutcome = websim.MultiOutcome

// SimulateMulti replays several clustered logs (one per origin server)
// through one shared fleet of per-cluster proxies — the paper's
// multi-server extension of the caching simulation.
func SimulateMulti(results []*Result, cfg SimConfig) (MultiOutcome, error) {
	return websim.SimulateMulti(results, cfg)
}

// Proxy placement (Section 4.1.4).
type (
	// PlacementMetric selects the load measure that sizes proxy counts.
	PlacementMetric = placement.Metric
	// PlacementPlan is a per-busy-cluster proxy allocation.
	PlacementPlan = placement.Plan
	// ProxyGroup is a set of proxies grouped by origin AS.
	ProxyGroup = placement.ProxyCluster
)

// Placement load metrics.
const (
	PlaceByClients  = placement.ByClients
	PlaceByRequests = placement.ByRequests
	PlaceByURLs     = placement.ByURLs
	PlaceByBytes    = placement.ByBytes
)

// PlanPlacement builds a strategy-1 plan: every busy cluster receives
// proxies proportional to its load.
func PlanPlacement(res *Result, coverFrac float64, metric PlacementMetric, perProxy int64) (PlacementPlan, error) {
	return placement.PerCluster(res, coverFrac, metric, perProxy)
}

// GroupProxiesByAS buckets a plan's proxies into cooperating proxy
// clusters by the origin AS of each cluster's prefix (strategy 2).
func GroupProxiesByAS(plan PlacementPlan, table *Table) []ProxyGroup {
	return placement.GroupByAS(plan, table)
}

// GroupProxiesByASAndLocation additionally splits by country via a
// whois-style AS→country lookup, the paper's full strategy 2.
func GroupProxiesByASAndLocation(plan PlacementPlan, table *Table, countryOf func(asn uint32) string) []ProxyGroup {
	return placement.GroupByASAndLocation(plan, table, countryOf)
}

// ASInfo is a whois-style AS registry record.
type ASInfo = bgpsim.ASInfo

// HTTPProxy is a runnable HTTP implementation of the caching proxy the
// simulation models: TTL freshness, If-Modified-Since revalidation,
// piggyback cache validation, LRU eviction. Deploy one in front of each
// identified cluster (see cmd/pcvproxy).
type HTTPProxy = httpproxy.Proxy

// HTTPProxyStats mirrors the simulation's cache statistics for measured
// deployments.
type HTTPProxyStats = httpproxy.Stats

// NewHTTPProxy returns a caching proxy for the origin base URL with the
// paper's defaults (1 h TTL, PCV on).
func NewHTTPProxy(origin string) (*HTTPProxy, error) { return httpproxy.New(origin) }

// MetricsSnapshot is a point-in-time copy of the library's process-wide
// metric registry: counters, gauges and log2-bucketed histograms from
// every instrumented subsystem (table compilation, lookups, clustering
// engines, CLF parsing, caches, wire clients). It marshals to
// deterministic, key-sorted JSON.
type MetricsSnapshot = obsv.Snapshot

// Metrics returns a snapshot of the library's internal metrics. The
// registry is cumulative for the process lifetime; diff two snapshots to
// meter one workload. The same data is exposed as the expvar variable
// "netcluster" on any /debug/vars endpoint the embedding process serves.
func Metrics() MetricsSnapshot { return obsv.TakeSnapshot() }

// MetricsHandler returns an http.Handler serving /debug/vars (expvar
// JSON including the metric registry), /debug/pprof, /metrics
// (Prometheus text exposition with histogram buckets and derived
// quantiles) and /debug/trace (the flight recorder as Chrome trace_event
// JSON), for mounting on a private operational listener (see
// cmd/pcvproxy's -metrics-addr).
func MetricsHandler() http.Handler { return obsv.DebugHandler() }

// TraceHandler returns an http.Handler that dumps the flight recorder —
// the always-on, fixed-size ring of recently completed trace spans — as
// Chrome trace_event JSON, openable directly in chrome://tracing or
// Perfetto. MetricsHandler already mounts it at /debug/trace; use this to
// mount the dump elsewhere.
func TraceHandler() http.Handler { return obsv.TraceHandler() }

// WriteTrace writes the flight recorder's current contents to path as
// Chrome trace_event JSON (what clusterctl and experiments emit for
// -trace-out).
func WriteTrace(path string) error { return obsv.WriteTraceFile(path) }

// TraceHeader is the HTTP header that carries a span context across
// process boundaries (traceparent-shaped:
// "00-<32 hex trace id>-<16 hex span id>-<2 hex flags>"). The shard
// router stamps it on fan-out requests and clusterd extracts it, so one
// TraceID spans a whole cluster's flight recorders; embedders can join
// their own callers' traces with InjectTrace/ExtractTrace.
const TraceHeader = obsv.TraceHeader

// InjectTrace stamps ctx's span context (if any) onto h as the
// TraceHeader, making an outbound request part of the current trace.
func InjectTrace(ctx context.Context, h http.Header) { obsv.HTTPInject(ctx, h) }

// ExtractTrace returns ctx carrying the span context from h's
// TraceHeader, or ctx unchanged if the header is absent or malformed —
// a bad caller costs itself its trace, never the request.
func ExtractTrace(ctx context.Context, h http.Header) context.Context {
	return obsv.HTTPExtract(ctx, h)
}

// MergeTraces stitches per-process flight-recorder dumps (Chrome
// trace_event JSON, e.g. each node's /debug/trace) into one trace with
// a named process lane group per input — what `tracecheck -merge`
// writes and chrome://tracing renders as one cluster-wide timeline.
func MergeTraces(names []string, dumps [][]byte) ([]byte, error) {
	return obsv.MergeChromeTraces(names, dumps)
}

// Push export: the durable counterpart to the pull surfaces above. A
// SinkManager ships metric deltas to declared backends (HTTP push, a
// newline-JSON file journal, UDP) with write-ahead durability — batches
// are WAL-journaled before the first delivery attempt, retried with
// backoff and a circuit breaker, and deduplicable by sequence number at
// the receiver — so a dead collector never blocks the pipeline and
// never silently loses more than the configured budget.
type (
	// SinkSpec declares one push sink (name, type "http"|"file"|"udp",
	// endpoint or path).
	SinkSpec = sink.Spec
	// SinkManager reconciles a live set of exporters against specs;
	// Apply hot-swaps endpoints without losing queued backlog.
	SinkManager = sink.Manager
	// SinkOptions configures a SinkManager.
	SinkOptions = sink.Options
	// SinkStatus is one exporter's operational position.
	SinkStatus = sink.SinkStatus
)

// NewSinkManager returns a push-export manager whose per-sink WALs live
// under dir. Declare sinks with Apply; flush and stop with Close.
func NewSinkManager(dir string, opts SinkOptions) *SinkManager { return sink.NewManager(dir, opts) }

// Synthetic world: the offline substitute for the paper's live data
// sources. Generate a world once, derive BGP views, logs, DNS and
// traceroute from it.
type (
	// World is a generated ground-truth Internet.
	World = inet.Internet
	// WorldConfig controls world generation.
	WorldConfig = inet.Config
	// Network is one administratively uniform ground-truth subnet.
	Network = inet.Network
	// BGPSim derives vantage-point views from a world.
	BGPSim = bgpsim.Sim
	// BGPSimConfig controls announcement behaviour.
	BGPSimConfig = bgpsim.Config
	// ViewConfig describes one vantage point.
	ViewConfig = bgpsim.ViewConfig
	// LogConfig parameterizes synthetic log generation.
	LogConfig = weblog.GenConfig
	// Resolver simulates reverse DNS over a world.
	Resolver = dnssim.Resolver
	// Tracer simulates (optimized) traceroute over a world.
	Tracer = tracesim.Tracer
	// Corrector runs the self-correction and adaptation stage.
	Corrector = selfcorrect.Corrector
	// CorrectionOutcome summarizes one self-correction pass.
	CorrectionOutcome = selfcorrect.Outcome
	// NetworkCluster is a second-level group of client clusters sharing
	// upstream infrastructure (Section 3.6).
	NetworkCluster = selfcorrect.NetworkCluster
)

// DefaultWorldConfig returns the scale used by the headline experiments.
func DefaultWorldConfig() WorldConfig { return inet.DefaultConfig() }

// GenerateWorld builds a deterministic synthetic Internet.
func GenerateWorld(cfg WorldConfig) (*World, error) { return inet.Generate(cfg) }

// WriteWorld serializes a world so separate processes can share one exact
// ground truth (see cmd/worldgen).
func WriteWorld(w io.Writer, world *World) error { return inet.WriteWorld(w, world) }

// ReadWorld deserializes a world written by WriteWorld.
func ReadWorld(r io.Reader) (*World, error) { return inet.ReadWorld(r) }

// NewBGPSim fixes a world's route-announcement behaviour.
func NewBGPSim(w *World, cfg BGPSimConfig) *BGPSim { return bgpsim.New(w, cfg) }

// DefaultBGPSimConfig mirrors the paper's observed error rates.
func DefaultBGPSimConfig() BGPSimConfig { return bgpsim.DefaultConfig() }

// StandardViews mirrors the paper's Table 1 source list.
func StandardViews() []ViewConfig { return bgpsim.StandardViews() }

// CollectAndMerge generates every standard view plus registry dumps and
// merges them into a clustering table.
func CollectAndMerge(s *BGPSim) *Table { return bgpsim.Merge(s.Collect()) }

// GenerateLog synthesizes a server log over a world.
func GenerateLog(w *World, cfg LogConfig) (*Log, error) { return weblog.Generate(w, cfg) }

// StreamGen is the endless record-at-a-time form of GenerateLog: same
// profiles, same determinism under a fixed seed, O(clients) memory
// however many records are drawn. It is what cmd/loadgen replays from.
type StreamGen = weblog.StreamGen

// NewStreamGen builds a streaming generator over a world.
func NewStreamGen(w *World, cfg LogConfig) (*StreamGen, error) { return weblog.NewStreamGen(w, cfg) }

// NaganoProfile returns the paper's primary trace shape at the given
// scale (1.0 = the paper's published counts). ApacheProfile, EW3Profile
// and SunProfile cover the other traces.
func NaganoProfile(scale float64) LogConfig { return weblog.Nagano(scale) }

// ApacheProfile returns the large popular-site trace shape.
func ApacheProfile(scale float64) LogConfig { return weblog.Apache(scale) }

// EW3Profile returns the small-site trace shape.
func EW3Profile(scale float64) LogConfig { return weblog.EW3(scale) }

// SunProfile returns the trace with the canonical spider and proxy.
func SunProfile(scale float64) LogConfig { return weblog.Sun(scale) }

// NewResolver returns a reverse-DNS resolver over a world.
func NewResolver(w *World) *Resolver { return dnssim.New(w) }

// NewTracer returns a traceroute simulator probing from origin.
func NewTracer(w *World, origin *inet.AS) *Tracer { return tracesim.New(w, origin) }

// ValidateNslookup runs the DNS suffix validation over sampled clusters.
func ValidateNslookup(w *World, r *Resolver, sampled []*Cluster) ValidationReport {
	return validate.Nslookup(w, r, sampled)
}

// ValidateTraceroute runs the optimized-traceroute validation.
func ValidateTraceroute(w *World, r *Resolver, t *Tracer, sampled []*Cluster) ValidationReport {
	return validate.Traceroute(w, r, t, sampled)
}
