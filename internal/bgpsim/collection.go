package bgpsim

import (
	"github.com/netaware/netcluster/internal/bgp"
)

// StandardViews mirrors the paper's Table 1: fourteen sources of varying
// size and quality. Visibility values are tuned so relative table sizes
// come out in the same order as the paper's (CANET/VBNS tiny, OREGON and
// AT&T-BGP large, the registries largest of all).
func StandardViews() []ViewConfig {
	return []ViewConfig{
		{Name: "AADS", Visibility: 0.25, Date: "12/7/1999", Comment: "BGP routing table snapshots updated every 2 hours"},
		{Name: "AT&T-BGP", Visibility: 0.90, Date: "12/15/1999", Comment: "BGP routing table snapshots"},
		{Name: "AT&T-Forw", Visibility: 0.80, Date: "4/28/1999", Comment: "BGP forwarding table snapshots"},
		{Name: "CANET", Visibility: 0.025, Date: "12/1/1999", Comment: "Real-time BGP routing table snapshots"},
		{Name: "CERFNET", Visibility: 0.62, Date: "9/29/1999", Comment: "Real-time BGP routing table snapshots"},
		{Name: "MAE-EAST", Visibility: 0.58, Date: "12/7/1999", Comment: "BGP routing table snapshots taken every 2 hours"},
		{Name: "MAE-WEST", Visibility: 0.38, Date: "12/7/1999", Comment: "BGP routing table snapshots taken every 2 hours"},
		{Name: "OREGON", Visibility: 0.88, Date: "12/7/1999", Comment: "Real-time BGP routing table snapshots"},
		{Name: "PACBELL", Visibility: 0.31, Date: "12/7/1999", Comment: "BGP routing table snapshots updated every 2 hours"},
		{Name: "PAIX", Visibility: 0.13, Date: "12/7/1999", Comment: "BGP routing table snapshots updated every 2 hours"},
		{Name: "SINGAREN", Visibility: 0.85, Date: "12/7/1999", Comment: "Real-time BGP routing table snapshots"},
		{Name: "VBNS", Visibility: 0.022, Date: "12/7/1999", Comment: "BGP routing table snapshots updated every 30 minutes"},
	}
}

// Collection is the full set of snapshots an experiment ingests: the BGP
// views plus the two registry dumps.
type Collection struct {
	Views      []*bgp.Snapshot
	Registries []*bgp.Snapshot
}

// Collect generates every standard view at day 0 plus ARIN/NLANR-style
// registry dumps. ARIN is recent with high coverage; NLANR is a 1997
// legacy dump with partial coverage, matching the paper's description.
func (s *Sim) Collect() *Collection {
	c := &Collection{}
	for _, vc := range StandardViews() {
		c.Views = append(c.Views, s.View(vc, 0))
	}
	c.Registries = append(c.Registries,
		s.Registry("ARIN", "10/1999", 0.97),
		s.Registry("NLANR", "11/1997", 0.60),
	)
	return c
}

// Merge unions a collection into the single prefix/netmask table that
// clustering consumes.
func Merge(c *Collection) *bgp.Merged {
	m := bgp.NewMerged()
	for _, v := range c.Views {
		m.Add(v)
	}
	for _, r := range c.Registries {
		m.Add(r)
	}
	return m
}

// ASInfo is one whois-style AS registry record: the observable metadata
// (name, country) the paper's proxy-placement strategy 2 needs to group
// proxies "according to their AS numbers and geographical locations".
type ASInfo struct {
	Number  uint32
	Name    string
	Country string
}

// ASRegistry returns the whois-style AS registry of the world: public
// information in reality, derived from the ground truth here.
func (s *Sim) ASRegistry() map[uint32]ASInfo {
	out := make(map[uint32]ASInfo, len(s.world.ASes))
	for _, as := range s.world.ASes {
		out[as.Number] = ASInfo{Number: as.Number, Name: as.Name, Country: as.Country.Code}
	}
	return out
}
