package bgp

import (
	"sort"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/radix"
)

// Provenance records which snapshots contributed a prefix to the merged
// table. The paper tracks this to report that <1% of clients are clustered
// via network-dump prefixes, and uses origin-AS information for grouping
// proxies into proxy clusters (Section 4.1.4) and as the error-reduction
// signal of its ongoing work.
type Provenance struct {
	Sources  []string   // snapshot names, in merge order, deduplicated
	Kind     SourceKind // strongest kind seen: BGP wins over network dump
	OriginAS uint32     // origin AS of the first entry seen; 0 when unknown
}

// Merged is the paper's single, large prefix/netmask table: the union of
// every collected snapshot, unified to canonical form. Internally it keeps
// two longest-prefix-match tries so that lookups can prefer BGP-derived
// prefixes (primary) and fall back to network-dump prefixes (secondary),
// exactly the precedence Section 3.1.1 describes.
type Merged struct {
	primary   *radix.Tree[*Provenance]
	secondary *radix.Tree[*Provenance]
	// mergedNames tracks which snapshot names have already been merged per
	// class. Because snapshot names within a class are normally distinct,
	// source dedup in Add then reduces to an O(1) check of the most recent
	// source — the full scan is needed only when the same snapshot name is
	// merged twice, instead of on every entry (which made Add quadratic in
	// the number of sources per prefix across a 14-snapshot collection).
	mergedNames [2]map[string]struct{}
}

// NewMerged returns an empty merged table.
func NewMerged() *Merged {
	return &Merged{
		primary:   radix.New[*Provenance](),
		secondary: radix.New[*Provenance](),
	}
}

// Add merges every entry of snapshot s into the table, deduplicating
// prefixes and accumulating provenance.
func (m *Merged) Add(s *Snapshot) {
	tree, class := m.primary, 0
	if s.Kind == SourceNetworkDump {
		tree, class = m.secondary, 1
	}
	names := m.mergedNames[class]
	if names == nil {
		names = make(map[string]struct{})
		m.mergedNames[class] = names
	}
	_, nameSeen := names[s.Name]
	names[s.Name] = struct{}{}
	for _, e := range s.Entries {
		if prov, ok := tree.Get(e.Prefix); ok {
			// A duplicate prefix within this snapshot has just put s.Name at
			// the tail of Sources; an earlier snapshot can only have added
			// it when the name was merged before.
			n := len(prov.Sources)
			dup := n > 0 && prov.Sources[n-1] == s.Name
			if !dup && nameSeen {
				dup = containsString(prov.Sources, s.Name)
			}
			if !dup {
				prov.Sources = append(prov.Sources, s.Name)
			}
			if prov.OriginAS == 0 {
				prov.OriginAS = e.OriginAS()
			}
			continue
		}
		tree.Insert(e.Prefix, &Provenance{
			Sources:  []string{s.Name},
			Kind:     s.Kind,
			OriginAS: e.OriginAS(),
		})
	}
}

func containsString(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// Len returns the number of unique prefixes across both source classes.
// Prefixes present in both a BGP table and a network dump count once per
// class here; NumUnique collapses them.
func (m *Merged) Len() int { return m.primary.Len() + m.secondary.Len() }

// NumPrimary returns the number of unique BGP-derived prefixes.
func (m *Merged) NumPrimary() int { return m.primary.Len() }

// NumSecondary returns the number of unique network-dump prefixes.
func (m *Merged) NumSecondary() int { return m.secondary.Len() }

// Match is the result of a longest-prefix lookup against the merged table.
type Match struct {
	Prefix netutil.Prefix
	Kind   SourceKind // which source class supplied the winning prefix
}

// Lookup performs the clustering lookup for addr: longest match among BGP
// prefixes first; if none matches, longest match among network-dump
// prefixes. The boolean is false when addr is unclusterable (no prefix in
// either class contains it). A match against the bare default route 0/0 is
// treated as unclusterable — a "cluster" spanning the whole Internet has no
// topological meaning.
func (m *Merged) Lookup(addr netutil.Addr) (Match, bool) {
	if p, _, ok := m.primary.Lookup(addr); ok && !p.IsZero() {
		return Match{Prefix: p, Kind: SourceBGP}, true
	}
	if p, _, ok := m.secondary.Lookup(addr); ok && !p.IsZero() {
		return Match{Prefix: p, Kind: SourceNetworkDump}, true
	}
	return Match{}, false
}

// Provenance returns the recorded provenance for exactly p, if present in
// either class (primary checked first).
func (m *Merged) Provenance(p netutil.Prefix) (*Provenance, bool) {
	if prov, ok := m.primary.Get(p); ok {
		return prov, ok
	}
	return m.secondary.Get(p)
}

// Walk visits all prefixes, primary class first, each class in ascending
// prefix order.
func (m *Merged) Walk(fn func(p netutil.Prefix, prov *Provenance) bool) {
	stopped := false
	m.primary.Walk(func(p netutil.Prefix, prov *Provenance) bool {
		if !fn(p, prov) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	m.secondary.Walk(fn)
}

// SnapshotPrefixLengthHistogram counts a snapshot's unique prefixes per
// mask length; index i holds the count of /i prefixes. This is the data
// behind Figure 1(a).
func SnapshotPrefixLengthHistogram(s *Snapshot) [33]int {
	var h [33]int
	for p := range s.PrefixSet() {
		h[p.Bits()]++
	}
	return h
}

// DynamicPrefixSet implements the paper's Section 3.4 definition: given a
// series of snapshots of the same table over a testing period, the dynamic
// prefix set is every prefix NOT present in the intersection of all of
// them, i.e. the prefixes that appeared or disappeared at least once. Its
// size is the "maximum effect" of BGP dynamics.
func DynamicPrefixSet(series []*Snapshot) map[netutil.Prefix]struct{} {
	if len(series) == 0 {
		return nil
	}
	// Count occurrences across snapshots; intersection = seen in all.
	counts := make(map[netutil.Prefix]int)
	for _, s := range series {
		for p := range s.PrefixSet() {
			counts[p]++
		}
	}
	dyn := make(map[netutil.Prefix]struct{})
	for p, c := range counts {
		if c != len(series) {
			dyn[p] = struct{}{}
		}
	}
	return dyn
}

// SortedPrefixes returns the deduplicated prefixes of s in canonical order,
// used by reports and by the aggregation pass.
func SortedPrefixes(s *Snapshot) []netutil.Prefix {
	set := s.PrefixSet()
	out := make([]netutil.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return netutil.ComparePrefix(out[i], out[j]) < 0 })
	return out
}

// Aggregate performs one round of CIDR route aggregation on a prefix set:
// whenever both halves of a parent prefix are present, they are replaced by
// the parent, repeatedly until fixpoint. Real routing tables are aggregated
// this way to stay small; the paper identifies aggregation as the main
// cause of too-large clusters, so the synthetic views use this exact pass
// to introduce that error mode deliberately.
func Aggregate(prefixes []netutil.Prefix) []netutil.Prefix {
	set := make(map[netutil.Prefix]struct{}, len(prefixes))
	for _, p := range prefixes {
		set[p] = struct{}{}
	}
	for {
		merged := false
		for p := range set {
			if p.Bits() == 0 {
				continue
			}
			sib := p.Sibling()
			if _, ok := set[sib]; !ok {
				continue
			}
			parent := p.Parent()
			delete(set, p)
			delete(set, sib)
			set[parent] = struct{}{}
			merged = true
		}
		if !merged {
			break
		}
	}
	out := make([]netutil.Prefix, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return netutil.ComparePrefix(out[i], out[j]) < 0 })
	return out
}
