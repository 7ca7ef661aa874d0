package node

import (
	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/bgpsim"
	"github.com/netaware/netcluster/internal/inet"
)

// SyntheticWorld builds the seeded world clusterd boots on by default:
// an inet topology of ases ASes seen through bgpsim's vantages, merged
// into one table, and a churn generator (seeded with seed too) over the
// union of every vantage's entries. The registry (secondary) prefixes
// stay static, as the paper's network dumps did across its testing
// periods.
func SyntheticWorld(ases int, seed int64, cc bgpsim.ChurnConfig) (*bgp.Merged, *bgpsim.ChurnGen, error) {
	wcfg := inet.DefaultConfig()
	wcfg.NumASes = ases
	wcfg.Seed = seed
	world, err := inet.Generate(wcfg)
	if err != nil {
		return nil, nil, err
	}
	scfg := bgpsim.DefaultConfig()
	scfg.Seed = seed
	coll := bgpsim.New(world, scfg).Collect()
	universe := &bgp.Snapshot{Name: "bgpsim-churn", Kind: bgp.SourceBGP}
	for _, v := range coll.Views {
		universe.Entries = append(universe.Entries, v.Entries...)
	}
	cc.Seed = seed
	return bgpsim.Merge(coll), bgpsim.NewChurnGen(universe, cc), nil
}
