package node

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/shard"
)

// ClusterConfig sizes an in-process Cluster.
type ClusterConfig struct {
	Shards     int     // shard node count; 0 = 3
	ASes       int     // synthetic world size; 0 = 300
	Seed       int64   // world + churn seed; 0 = 1
	MeanBatch  int     // mean churn ops per delta; 0 = 32
	Burstiness float64 // churn burst probability; 0 = the churn default
	MaxLog     int     // feed retention; 0 = shard.DefaultMaxLog
	Logf       func(format string, args ...any)

	// FederateEvery is the router aggregator's staleness bound
	// (shard.RouterConfig.FederateEvery); tests set it tiny so every
	// /metrics/cluster scrape pulls fresh shard snapshots.
	FederateEvery time.Duration
}

// Cluster is a whole sharded deployment in one process: a compiler node
// (full table + Feed) over the synthetic world clusterd boots on, N
// shard nodes whose followers are seeded from the feed snapshot and
// filtered to their range, each on a real loopback listener, and a
// Router fronting them. Every node is a production node (New). It lives
// in a non-test file so the root benchmark suite and the cluster tests
// share it.
//
// The harness drives churn synchronously — Step publishes one delta and
// walks every live follower to the new head — so tests get lockstep
// determinism; production nodes run instead (Node.Run).
type Cluster struct {
	Map       *shard.Map
	Feed      *shard.Feed
	ChurnGen  *bgpsim.ChurnGen
	Router    *shard.Router
	Followers []*shard.Follower

	feedSrv   *serverHandle
	nodeSrvs  []*serverHandle
	routerSrv *serverHandle
	tun       Tunables
	dead      []bool
	logf      func(format string, args ...any)
}

type serverHandle struct {
	ln   net.Listener
	srv  *http.Server
	node *Node // nil on the router
	base string
}

func startServer(h http.Handler) (*serverHandle, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	sh := &serverHandle{ln: ln, srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String()}
	go sh.srv.Serve(ln)
	return sh, nil
}

// startNode builds a node from cfg and serves it.
func startNode(cfg Config) (*serverHandle, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sh, err := startServer(n.Handler())
	if err == nil {
		sh.node = n
	}
	return sh, err
}

// close kills the server: the listener and every connection go at once,
// the batch streams http.Server.Close cannot see included — a dead node
// must not keep answering on the streams a router has pooled.
func (sh *serverHandle) close() {
	if sh == nil {
		return
	}
	sh.srv.Close()
	if sh.node != nil {
		dead, cancel := context.WithCancel(context.Background())
		cancel()
		sh.node.Shutdown(dead)
	}
}

// NewCluster builds and starts the whole deployment. Callers must Close
// it.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 3
	}
	if cfg.ASes <= 0 {
		cfg.ASes = 300
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	cc := bgpsim.DefaultChurnConfig()
	if cfg.MeanBatch > 0 {
		cc.MeanBatch = cfg.MeanBatch
	}
	if cfg.Burstiness > 0 {
		cc.Burstiness = cfg.Burstiness
	}
	merged, gen, err := SyntheticWorld(cfg.ASes, cfg.Seed, cc)
	if err != nil {
		return nil, err
	}
	table := churn.New(merged)
	c := &Cluster{
		Map:      shard.NewMap(cfg.Shards),
		Feed:     shard.NewFeed(table, cfg.MaxLog),
		ChurnGen: gen,
		tun:      DefaultTunables(),
		dead:     make([]bool, cfg.Shards),
		logf:     logf,
	}
	c.tun.ChurnEvery = 0 // Step drives churn; no node churns on its own
	c.feedSrv, err = startNode(Config{Table: table, Tunables: c.tun, Feed: c.Feed, Logf: logf})
	if err != nil {
		return nil, err
	}

	// Shard nodes: join from the feed snapshot, filtered to their range.
	for i := 0; i < cfg.Shards; i++ {
		f, err := shard.Join(c.feedSrv.base, nil, c.Map.Keep(i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard %d join: %w", i, err)
		}
		f.Logf = logf
		c.Followers = append(c.Followers, f)
		sh, err := startNode(c.shardConfig(i))
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodeSrvs = append(c.nodeSrvs, sh)
		c.Map.Shards[i].Addr = sh.base
	}

	c.Router, err = shard.NewRouter(shard.RouterConfig{Map: c.Map, FederateEvery: cfg.FederateEvery})
	if err != nil {
		c.Close()
		return nil, err
	}
	c.routerSrv, err = startServer(c.Router.Handler())
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// shardConfig is shard i's node: clusterd with -feed and -shard-index i.
func (c *Cluster) shardConfig(i int) Config {
	f := c.Followers[i]
	return Config{Table: f.Table, Tunables: c.tun, Follower: f, Shard: strconv.Itoa(i), Logf: c.logf}
}

// Reference returns the compiler node's full table — the single-node
// equivalence oracle.
func (c *Cluster) Reference() *churn.Table { return c.feedSrv.node.cfg.Table }

// FeedBase returns the compiler node's base URL.
func (c *Cluster) FeedBase() string { return c.feedSrv.base }

// RouterBase returns the router's base URL.
func (c *Cluster) RouterBase() string { return c.routerSrv.base }

// NodeBase returns shard i's base URL.
func (c *Cluster) NodeBase(i int) string { return c.nodeSrvs[i].base }

// Step publishes one churn delta and drives every live follower until
// it has caught up, so on return all live tables are at the same
// generation as the reference.
func (c *Cluster) Step() error {
	c.Feed.Apply(c.ChurnGen.Next())
	return c.CatchUp()
}

// CatchUp drives every live follower to the feed head without
// publishing anything new.
func (c *Cluster) CatchUp() error {
	ctx := context.Background()
	for i, f := range c.Followers {
		if c.dead[i] {
			continue
		}
		for {
			n, err := f.Step(ctx)
			if err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
			if n == 0 && f.Seq() == c.Feed.Head() {
				break
			}
		}
	}
	return nil
}

// KillNode shuts shard i's server down, batch streams included, and
// stops driving its follower — from the router's point of view the node
// is gone mid-deployment.
func (c *Cluster) KillNode(i int) {
	if !c.dead[i] {
		c.dead[i] = true
		c.nodeSrvs[i].close()
		c.logf("cluster harness: killed shard node %d (%s)", i, c.nodeSrvs[i].base)
	}
}

// ReviveNode restarts a killed shard i as a new node on a fresh port:
// its follower re-joins the stream (catching up through Step's resync
// path if it fell off the log) and the shard map is updated in place,
// which the router observes on its next batch.
func (c *Cluster) ReviveNode(i int) error {
	if !c.dead[i] {
		return nil
	}
	sh, err := startNode(c.shardConfig(i))
	if err != nil {
		return err
	}
	c.nodeSrvs[i] = sh
	c.Map.Shards[i].Addr = sh.base
	c.dead[i] = false
	c.logf("cluster harness: revived shard node %d at %s", i, sh.base)
	return c.CatchUp()
}

// Close shuts every server down.
func (c *Cluster) Close() {
	c.routerSrv.close()
	if c.Router != nil {
		c.Router.Close()
	}
	for _, sh := range c.nodeSrvs {
		sh.close()
	}
	c.feedSrv.close()
}
