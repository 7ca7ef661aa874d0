package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/weblog"
)

// Inputs. The dataset — the synthetic world, the routing table built from
// it, the client population with its popularity, and the web log — is the
// same in every run, generated from datasetSeed. The run's --seed decides
// what is asked of it: the order the address stream visits the population
// in, hence every request body, and where in the log a pass starts. A seeded
// world would change the table's size and the log's cluster shape from run
// to run, and allocation and memory metrics would then measure the seed,
// not the code: with ten seeds, allocations per record of the same code
// ranged over 20%.
const (
	datasetSeed = 1

	worldASes   = 10000 // ≈ 70k prefixes, the table size every workload uses
	meanBatch   = 32    // clusterd's -mean-batch default; the oracle replays it
	burstiness  = 0.15  // clusterd's -burstiness default
	batchAddrs  = 512   // addresses per routed POST /cluster
	numBodies   = 256   // distinct request bodies a serving driver cycles through
	readerAddrs = 4096  // table_churn reader batch
	addrScale   = 0.1   // Apache profile scale of the address stream: 18,000 clients
	logScale    = 0.021 // Apache profile scale of the offline log: 151,200 records
)

// world is the seeded synthetic Internet plus the snapshot collection the
// routing table is merged from — what clusterd builds from -ases/-seed.
type world struct {
	inet     *inet.Internet
	coll     *bgpsim.Collection
	universe *bgp.Snapshot // union of the BGP views: the churn universe
}

func genWorld(ases int) (*world, error) {
	wcfg := inet.DefaultConfig()
	wcfg.NumASes = ases
	wcfg.Seed = datasetSeed
	in, err := inet.Generate(wcfg)
	if err != nil {
		return nil, err
	}
	scfg := bgpsim.DefaultConfig()
	scfg.Seed = datasetSeed
	coll := bgpsim.New(in, scfg).Collect()
	universe := &bgp.Snapshot{Name: "bgpsim-churn", Kind: bgp.SourceBGP}
	for _, v := range coll.Views {
		universe.Entries = append(universe.Entries, v.Entries...)
	}
	return &world{inet: in, coll: coll, universe: universe}, nil
}

// merged returns a fresh merged table; churn.New and bgp.NewIncremental
// take ownership of the one they are given.
func (w *world) merged() *bgp.Merged { return bgpsim.Merge(w.coll) }

// churnGen returns a seeded delta schedule. With datasetSeed it is the one
// a clusterd started with -seed datasetSeed produces: delta n of the
// generator is that node's generation n.
func (w *world) churnGen(seed int64) *bgpsim.ChurnGen {
	ccfg := bgpsim.DefaultChurnConfig()
	ccfg.Seed = seed
	ccfg.MeanBatch = meanBatch
	ccfg.Burstiness = burstiness
	return bgpsim.NewChurnGen(w.universe, ccfg)
}

// addrs draws n client addresses from a StreamGen over the world the table
// was built from, so nearly all of them cluster (random addresses would
// mostly miss and make the response encoder look cheap), and shuffles them
// by seed: every run asks about the same multiset of clients, each in its
// own order.
func (w *world) addrs(n int, seed int64) ([]netutil.Addr, error) {
	cfg := weblog.Apache(addrScale)
	cfg.Seed = datasetSeed
	if cfg.NumNetworks > len(w.inet.Networks) {
		cfg.NumNetworks = len(w.inet.Networks)
	}
	g, err := weblog.NewStreamGen(w.inet, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]netutil.Addr, n)
	for i := range out {
		out[i] = g.Next().Client
	}
	rand.New(rand.NewSource(seed)).Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// batchBodies cuts addrs into newline-separated POST /cluster bodies of
// per addresses each.
func batchBodies(addrs []netutil.Addr, per int) [][]byte {
	var bodies [][]byte
	for lo := 0; lo+per <= len(addrs); lo += per {
		var b []byte
		for _, a := range addrs[lo : lo+per] {
			b = a.Append(b)
			b = append(b, '\n')
		}
		bodies = append(bodies, b)
	}
	return bodies
}

// clfLog generates the offline workload's log, rotates it to start at a
// record chosen by seed, and serializes it as CLF. (The parser clamps the
// one backwards step in time at the wrap instead of failing.)
func (w *world) clfLog(seed int64) (*weblog.Log, []byte, error) {
	cfg := weblog.Apache(logScale)
	cfg.Seed = datasetSeed
	if cfg.NumNetworks > len(w.inet.Networks) {
		return nil, nil, fmt.Errorf("log wants %d networks, world has %d", cfg.NumNetworks, len(w.inet.Networks))
	}
	l, err := weblog.Generate(w.inet, cfg)
	if err != nil {
		return nil, nil, err
	}
	k := rand.New(rand.NewSource(seed)).Intn(len(l.Requests))
	l.Requests = append(append([]weblog.Request(nil), l.Requests[k:]...), l.Requests[:k]...)
	var buf bytes.Buffer
	if err := weblog.WriteCLF(&buf, l); err != nil {
		return nil, nil, err
	}
	return l, buf.Bytes(), nil
}
