package weblog

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/stats"
)

// StreamGen synthesizes weblog records one at a time in O(clients +
// URLs) memory — the firehose counterpart of Generate, which
// materializes (and time-sorts) the whole request slice and therefore
// cannot feed a 100M-request replay. The trade against Generate:
// clients are drawn i.i.d. per record from a mixed-Pareto popularity
// (a one-pass generator cannot emit per-client runs and then sort), so
// per-client arrival patterns are memoryless, but the distributional
// shape the paper's figures depend on — Zipf-like requests-per-client
// and clients-per-network — is identical, and the draw sequence is
// fully determined by cfg.Seed.
type StreamGen struct {
	rng     *rand.Rand
	clients []netutil.Addr
	cdf     []float64 // client popularity CDF, aligned with clients
	urls    *urlSampler
	sizes   []int32
	next    time.Time
	step    time.Duration // mean inter-arrival
}

// GenRecord is one synthesized request: exactly what the firehose
// consumers need (the replay client posts Client, the accumulator
// weighs Size), without interned strings or a retained log.
type GenRecord struct {
	Client netutil.Addr
	URL    int32
	Size   int32
	Time   time.Time
}

// NewStreamGen builds a streaming generator over world with the same
// profile knobs as Generate. Spider/proxy planting is not supported in
// streaming mode (detection workloads use the materializing path);
// their fractions are ignored.
func NewStreamGen(world *inet.Internet, cfg GenConfig) (*StreamGen, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumNetworks > len(world.Networks) {
		return nil, fmt.Errorf("weblog: config wants %d networks, world has %d", cfg.NumNetworks, len(world.Networks))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	lg := &logGen{world: world, cfg: cfg, rng: rng}

	// Same population construction as the batch generator: Zipf-ish
	// clients-per-network, then a heavier-tailed per-client request
	// popularity that here becomes a sampling CDF instead of a quota.
	networks := lg.pickNetworks(cfg.NumNetworks)
	clientCounts, err := stats.Apportion(cfg.NumClients,
		lg.mixedWeights(len(networks), 1/cfg.ClientZipf), 1)
	if err != nil {
		return nil, err
	}
	var clients []netutil.Addr
	for i, n := range networks {
		clients = append(clients, lg.sampleHosts(n, clientCounts[i])...)
	}
	weights := lg.mixedWeights(len(clients), 1/cfg.RequestZipf)
	cdf := make([]float64, len(clients))
	sum := 0.0
	for _, w := range weights {
		sum += w
	}
	acc := 0.0
	for i, w := range weights {
		acc += w / sum
		cdf[i] = acc
	}
	cdf[len(cdf)-1] = 1

	scratch := &Log{}
	lg.makeResources(scratch)
	sizes := make([]int32, len(scratch.Resources))
	for i, r := range scratch.Resources {
		sizes[i] = r.Size
	}

	step := cfg.Duration / time.Duration(cfg.NumRequests)
	if step <= 0 {
		step = time.Millisecond
	}
	return &StreamGen{
		rng:     rng,
		clients: clients,
		cdf:     cdf,
		urls:    newURLSampler(rng, cfg.NumURLs, cfg.URLZipf),
		sizes:   sizes,
		next:    cfg.Start,
		step:    step,
	}, nil
}

// NumClients returns the synthesized client population size.
func (g *StreamGen) NumClients() int { return len(g.clients) }

// Next returns the next record. The stream never ends — the caller
// decides how many records a replay needs. Arrivals are a homogeneous
// Poisson process at the profile's mean rate.
func (g *StreamGen) Next() GenRecord {
	i := sort.SearchFloat64s(g.cdf, g.rng.Float64())
	if i >= len(g.clients) {
		i = len(g.clients) - 1
	}
	url := g.urls.draw()
	g.next = g.next.Add(time.Duration(g.rng.ExpFloat64() * float64(g.step)))
	return GenRecord{
		Client: g.clients[i],
		URL:    url,
		Size:   g.sizes[url],
		Time:   g.next,
	}
}
