// Package inet synthesizes a ground-truth Internet for the clustering
// experiments: registries allocate address blocks to autonomous systems,
// ASes subdivide their blocks into administratively distinct networks, each
// network carries a DNS domain, a gateway router and a position in a router
// topology.
//
// The paper works against the real 1999 Internet, observed through BGP
// dumps, nslookup and traceroute. Those observations cannot be re-collected,
// so this package builds the closest synthetic equivalent: a world in which
// "the true administrative cluster of every client" is known exactly. The
// BGP views (internal/bgpsim), the DNS resolver (internal/dnssim) and the
// traceroute simulator (internal/tracesim) are all deterministic functions
// of this ground truth, which lets every validation experiment report both
// the paper's sampled estimate and the exact accuracy.
package inet

import (
	"fmt"
	"sort"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/radix"
)

// OrgKind is the flavour of administrative entity behind a network. It
// drives naming (universities get ac/edu suffixes, ISPs get per-client
// reverse names) and behavioural flags (ISP pools tend to be DHCP with no
// reverse DNS).
type OrgKind int

const (
	OrgUniversity OrgKind = iota
	OrgCompany
	OrgISP
	OrgGovernment
	orgKindCount
)

// String names the organization kind for reports.
func (k OrgKind) String() string {
	switch k {
	case OrgUniversity:
		return "university"
	case OrgCompany:
		return "company"
	case OrgISP:
		return "isp"
	case OrgGovernment:
		return "government"
	default:
		return fmt.Sprintf("OrgKind(%d)", int(k))
	}
}

// Country is a coarse geographic/administrative region. Countries flagged
// NationalGateway funnel all traffic through a single border router and
// hide the interior from traceroute — the paper singles these out (Croatia,
// France, Japan in its sample) as a systematic source of cluster
// mis-identification.
type Country struct {
	Code            string // "us", "jp", ...
	TLD             string // top-level domain suffix, e.g. "jp"
	AcademicSuffix  string // e.g. "ac.jp"; empty means "edu"-style under TLD
	NationalGateway bool
	Weight          int // relative share of ASes assigned to this country
}

// Network is one administratively uniform subnet: the ground-truth unit the
// paper's clusters approximate. All hosts inside share the Domain suffix
// and the last hops of their route.
type Network struct {
	ID      int
	Prefix  netutil.Prefix
	AS      *AS
	Kind    OrgKind
	Domain  string // DNS suffix shared by all hosts, e.g. "cs.wits.ac.za"
	Country *Country
	Pop     int // index of the AS point-of-presence this network hangs off

	// DNSRegistered: reverse DNS exists for hosts. The paper finds ~50% of
	// client addresses unresolvable (firewalls, DHCP pools without records,
	// ISPs that never register customer names).
	DNSRegistered bool
	// Firewalled: the destination host does not answer UDP probes, so
	// traceroute never sees an ICMP PORT_UNREACHABLE from it.
	Firewalled bool
	// PerClientNames: reverse names embed the address (ISP dial-up pools:
	// client-151-198-194-17.bellatlantic.net) rather than a host name.
	PerClientNames bool
}

// HostCapacity returns how many host addresses the network can hold
// (excluding the network and broadcast addresses for prefixes shorter
// than /31).
func (n *Network) HostCapacity() int {
	total := n.Prefix.NumAddrs()
	if total > 2 {
		total -= 2
	}
	const cap31 = 1 << 30
	if total > cap31 {
		return cap31
	}
	return int(total)
}

// HostAddr returns the i-th usable host address in the network,
// i in [0, HostCapacity()).
func (n *Network) HostAddr(i int) netutil.Addr {
	base := n.Prefix.Addr()
	if n.Prefix.NumAddrs() > 2 {
		return base + netutil.Addr(i) + 1 // skip the network address
	}
	return base + netutil.Addr(i)
}

// AS is an autonomous system: the unit that receives registry allocations,
// runs points of presence, and originates BGP routes for its networks.
type AS struct {
	Number      uint32
	Name        string // e.g. "Ficus Networks"
	DNSLabel    string // e.g. "ficus"
	Country     *Country
	Region      int // backbone region the AS attaches to
	Tier        int // 1 = backbone/provider (candidate vantage point), 2 = edge
	NumPops     int
	Allocations []netutil.Prefix // registry-assigned blocks
	Networks    []*Network
}

// Internet is the generated world plus its lookup indexes.
type Internet struct {
	Countries []*Country
	ASes      []*AS
	Networks  []*Network // all networks, id-indexed
	Regions   int        // number of backbone regions

	truth *radix.Tree[*Network] // exact network containing each address
}

// NetworkOf returns the ground-truth network containing addr, if any. This
// is the oracle the paper does not have: the actual administrative entity
// of the client.
func (in *Internet) NetworkOf(addr netutil.Addr) (*Network, bool) {
	_, n, ok := in.truth.Lookup(addr)
	return n, ok
}

// VantageASes returns the tier-1 ASes, the candidates for hosting routing
// table vantage points and for traceroute/probe origins.
func (in *Internet) VantageASes() []*AS {
	var out []*AS
	for _, as := range in.ASes {
		if as.Tier == 1 {
			out = append(out, as)
		}
	}
	return out
}

// Stats summarizes the generated world for reports and sanity tests.
type Stats struct {
	ASes            int
	Networks        int
	PrefixLengths   [33]int
	HostsCapacity   uint64
	DNSRegistered   int // networks with reverse DNS
	Firewalled      int
	NationalGateway int // networks behind a national gateway
}

// Stats computes summary statistics.
func (in *Internet) Stats() Stats {
	st := Stats{ASes: len(in.ASes), Networks: len(in.Networks)}
	for _, n := range in.Networks {
		st.PrefixLengths[n.Prefix.Bits()]++
		st.HostsCapacity += uint64(n.HostCapacity())
		if n.DNSRegistered {
			st.DNSRegistered++
		}
		if n.Firewalled {
			st.Firewalled++
		}
		if n.Country.NationalGateway {
			st.NationalGateway++
		}
	}
	return st
}

// sortNetworks orders networks by prefix for deterministic iteration.
func sortNetworks(ns []*Network) {
	sort.Slice(ns, func(i, j int) bool {
		return netutil.ComparePrefix(ns[i].Prefix, ns[j].Prefix) < 0
	})
}
