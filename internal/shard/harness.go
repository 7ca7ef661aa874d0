package shard

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/inet"
)

// ClusterConfig sizes an in-process Cluster.
type ClusterConfig struct {
	Shards     int     // shard node count; 0 = 3
	ASes       int     // synthetic world size; 0 = 300
	Seed       int64   // world + churn seed; 0 = 1
	MeanBatch  int     // mean churn ops per delta; 0 = 32
	Burstiness float64 // churn burst probability
	MaxLog     int     // feed retention; 0 = DefaultMaxLog
	Logf       func(format string, args ...any)

	// FederateEvery is the router aggregator's staleness bound
	// (RouterConfig.FederateEvery); tests set it tiny so every
	// /metrics/cluster scrape pulls fresh shard snapshots.
	FederateEvery time.Duration
}

// Cluster is a whole sharded deployment in one process: a compiler node
// (full table + Feed) over a seeded synthetic world, N shard followers
// each seeded from the feed snapshot and filtered to its range, one
// NodeServer per follower on a real loopback listener, and a Router
// fronting them. It lives in a non-test file so the root benchmark
// suite and the shard tests share it.
//
// The harness drives churn synchronously — Step publishes one delta and
// walks every live follower to the new head — so tests get lockstep
// determinism; production followers poll instead (Follower.Run).
type Cluster struct {
	Map       *Map
	Feed      *Feed
	ChurnGen  *bgpsim.ChurnGen
	Router    *Router
	Followers []*Follower

	feedSrv   *serverHandle
	nodeSrvs  []*serverHandle
	routerSrv *serverHandle
	dead      []bool
	logf      func(format string, args ...any)
}

type serverHandle struct {
	ln   net.Listener
	srv  *http.Server
	node *NodeServer // set on a shard node: its batch streams end with the server
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

func startNode(n *NodeServer) (*serverHandle, error) {
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
	if cfg.MeanBatch <= 0 {
		cfg.MeanBatch = 32
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Compiler node: full table over the synthetic world, same
	// construction as clusterd's default boot.
	wcfg := inet.DefaultConfig()
	wcfg.NumASes = cfg.ASes
	wcfg.Seed = cfg.Seed
	world, err := inet.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	scfg := bgpsim.DefaultConfig()
	scfg.Seed = cfg.Seed
	coll := bgpsim.New(world, scfg).Collect()
	table := churn.New(bgpsim.Merge(coll))

	universe := &bgp.Snapshot{Name: "churn-universe", Kind: bgp.SourceBGP}
	for _, v := range coll.Views {
		universe.Entries = append(universe.Entries, v.Entries...)
	}
	ccfg := bgpsim.DefaultChurnConfig()
	ccfg.Seed = cfg.Seed
	ccfg.MeanBatch = cfg.MeanBatch
	if cfg.Burstiness > 0 {
		ccfg.Burstiness = cfg.Burstiness
	}

	c := &Cluster{
		Map:      NewMap(cfg.Shards),
		Feed:     NewFeed(table, cfg.MaxLog),
		ChurnGen: bgpsim.NewChurnGen(universe, ccfg),
		dead:     make([]bool, cfg.Shards),
		logf:     logf,
	}

	c.feedSrv, err = startServer(c.Feed.Handler())
	if err != nil {
		return nil, err
	}

	// Shard nodes: join from the feed snapshot, filtered to their range.
	for i := 0; i < cfg.Shards; i++ {
		f, err := Join(c.feedSrv.base, nil, c.Map.Keep(i))
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("shard %d join: %w", i, err)
		}
		f.Logf = logf
		c.Followers = append(c.Followers, f)
		sh, err := startNode(&NodeServer{Table: f.Table, ShardID: i})
		if err != nil {
			c.Close()
			return nil, err
		}
		c.nodeSrvs = append(c.nodeSrvs, sh)
		c.Map.Shards[i].Addr = sh.base
	}

	c.Router, err = NewRouter(RouterConfig{Map: c.Map, FederateEvery: cfg.FederateEvery})
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

// Reference returns the compiler node's full table — the single-node
// equivalence oracle.
func (c *Cluster) Reference() *churn.Table { return c.Feed.Table() }

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
	d := c.ChurnGen.Next()
	c.Feed.Apply(d)
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

// ReviveNode restarts a killed shard i on a fresh port: its follower
// re-joins the stream (catching up through Step's resync path if it
// fell off the log) and the shard map is updated in place, which the
// router observes on its next batch.
func (c *Cluster) ReviveNode(i int) error {
	if !c.dead[i] {
		return nil
	}
	sh, err := startNode(&NodeServer{Table: c.Followers[i].Table, ShardID: i})
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
