package main

import (
	"fmt"
	"sort"

	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/churn"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/shard"
)

// oracle is the in-process reference the served answers are checked
// against: the same seeded world and the same ChurnGen the compiler node
// runs, advanced delta by delta, so generation n here is generation n
// there.
type oracle struct {
	tb   *churn.Table
	gen  *bgpsim.ChurnGen
	cur  uint64
	hist map[uint64]*bgp.Compiled // the last oracleHistory generations
}

// oracleHistory bounds how many past generations stay addressable; shards
// of one answer differ by a generation or two, never more. Each retained
// generation pins a few MB of table arrays.
const oracleHistory = 8

func newOracle(w *world) *oracle {
	tb := churn.New(w.merged())
	return &oracle{tb: tb, gen: w.churnGen(datasetSeed), hist: map[uint64]*bgp.Compiled{0: tb.Load()}}
}

// table returns the reference table at generation g, replaying deltas as
// needed. Generations must be asked for in roughly ascending order.
func (o *oracle) table(g uint64) (*bgp.Compiled, error) {
	for o.cur < g {
		o.tb.Apply(o.gen.Next())
		o.cur++
		o.hist[o.cur] = o.tb.Load()
		delete(o.hist, o.cur-oracleHistory)
	}
	c, ok := o.hist[g]
	if !ok {
		return nil, fmt.Errorf("oracle: generation %d already discarded (at %d)", g, o.cur)
	}
	return c, nil
}

// answer is one served row with the address that was asked.
type answer struct {
	asked netutil.Addr
	got   shard.LookupResult
}

// verify checks every answer against the oracle at the generation the
// answer itself reports, and that each prefix contains its address.
func (o *oracle) verify(answers []answer) error {
	sort.SliceStable(answers, func(i, j int) bool {
		return answers[i].got.Generation < answers[j].got.Generation
	})
	for _, a := range answers {
		c, err := o.table(a.got.Generation)
		if err != nil {
			return err
		}
		m, _ := c.Lookup(a.asked)
		want := shard.ResolveMatch(a.asked, m, a.got.Generation)
		if a.got != want {
			return fmt.Errorf("wrong answer for %v: served %+v, oracle %+v", a.asked, a.got, want)
		}
		if a.got.Clustered {
			p, err := netutil.ParsePrefix(a.got.Prefix)
			if err != nil || !p.Contains(a.asked) {
				return fmt.Errorf("served prefix %q does not contain %v", a.got.Prefix, a.asked)
			}
		}
	}
	return nil
}
