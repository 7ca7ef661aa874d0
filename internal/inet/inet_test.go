package inet

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

// smallConfig keeps unit tests fast while exercising every code path.
func smallConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.NumASes = 120
	cfg.NumTierOne = 8
	return cfg
}

func generate(t *testing.T, cfg Config) *Internet {
	t.Helper()
	in, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	return in
}

func TestGenerateDeterministic(t *testing.T) {
	a := generate(t, smallConfig(7))
	b := generate(t, smallConfig(7))
	if len(a.Networks) != len(b.Networks) || len(a.ASes) != len(b.ASes) {
		t.Fatalf("same seed, different worlds: %d/%d vs %d/%d networks/ASes",
			len(a.Networks), len(a.ASes), len(b.Networks), len(b.ASes))
	}
	for i := range a.Networks {
		na, nb := a.Networks[i], b.Networks[i]
		if na.Prefix != nb.Prefix || na.Domain != nb.Domain || na.Firewalled != nb.Firewalled {
			t.Fatalf("network %d differs: %+v vs %+v", i, na, nb)
		}
	}
	c := generate(t, smallConfig(8))
	if len(c.Networks) == len(a.Networks) && c.Networks[0].Domain == a.Networks[0].Domain {
		t.Error("different seeds produced an identical-looking world")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{NumASes: 0, Regions: 4}); err == nil {
		t.Error("NumASes=0 must fail")
	}
	if _, err := Generate(Config{NumASes: 5, Regions: 0}); err == nil {
		t.Error("Regions=0 must fail")
	}
	bad := smallConfig(1)
	bad.Countries = []*Country{{Code: "xx", Weight: 0}}
	if _, err := Generate(bad); err == nil {
		t.Error("zero total country weight must fail")
	}
}

func TestNetworksDoNotOverlap(t *testing.T) {
	in := generate(t, smallConfig(3))
	if len(in.Networks) < 100 {
		t.Fatalf("world too small: %d networks", len(in.Networks))
	}
	// Networks are sorted by (addr, bits); any overlap would appear between
	// a network and some network before it whose range extends past it.
	var maxEnd uint64
	first := true
	for _, n := range in.Networks {
		start, end := uint64(n.Prefix.First()), uint64(n.Prefix.Last())
		if !first && start <= maxEnd && start >= uint64(0) {
			// start within a previously seen range → overlap, unless the
			// previous range ended before start.
			if start <= maxEnd {
				t.Fatalf("network %v overlaps an earlier network (maxEnd=%d)", n.Prefix, maxEnd)
			}
		}
		if end > maxEnd {
			maxEnd = end
		}
		first = false
	}
}

func TestTruthLookup(t *testing.T) {
	in := generate(t, smallConfig(4))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		n := in.Networks[rng.Intn(len(in.Networks))]
		h := n.RandomHost(rng)
		got, ok := in.NetworkOf(h)
		if !ok || got != n {
			t.Fatalf("NetworkOf(%v) = %v, want network %v", h, got, n.Prefix)
		}
	}
	// An address in never-allocated space must not resolve.
	if _, ok := in.NetworkOf(netutil.MustParseAddr("10.1.2.3")); ok {
		t.Error("10/8 is excluded from allocation and must have no network")
	}
	if _, ok := in.NetworkOf(netutil.MustParseAddr("127.0.0.1")); ok {
		t.Error("loopback must have no network")
	}
}

func TestNetworkByID(t *testing.T) {
	in := generate(t, smallConfig(4))
	for i, n := range in.Networks {
		if n.ID != i {
			t.Fatalf("network %d has ID %d", i, n.ID)
		}
	}
	if n, ok := in.NetworkByID(0); !ok || n != in.Networks[0] {
		t.Error("NetworkByID(0) failed")
	}
	if _, ok := in.NetworkByID(-1); ok {
		t.Error("negative id must fail")
	}
	if _, ok := in.NetworkByID(len(in.Networks)); ok {
		t.Error("out-of-range id must fail")
	}
}

func TestPrefixLengthDistributionShape(t *testing.T) {
	in := generate(t, Config{
		Seed: 5, NumASes: 600, Regions: 12, NumTierOne: 12,
		DNSRegisteredProb: 0.55, FirewalledProb: 0.45,
	})
	st := in.Stats()
	total := 0
	for _, c := range st.PrefixLengths {
		total += c
	}
	if total != st.Networks {
		t.Fatalf("histogram total %d != networks %d", total, st.Networks)
	}
	// Figure 1 shape: /24 is the mode with roughly half the mass, and
	// shorter prefixes outnumber longer ones among the rest.
	frac24 := float64(st.PrefixLengths[24]) / float64(total)
	if frac24 < 0.30 || frac24 > 0.70 {
		t.Errorf("/24 fraction = %.2f, want roughly half", frac24)
	}
	shorter, longer := 0, 0
	for l := 0; l < 24; l++ {
		shorter += st.PrefixLengths[l]
	}
	for l := 25; l <= 32; l++ {
		longer += st.PrefixLengths[l]
	}
	if shorter <= longer {
		t.Errorf("shorter (%d) must outnumber longer (%d) non-/24 prefixes", shorter, longer)
	}
}

func TestResolvabilityFractions(t *testing.T) {
	in := generate(t, Config{
		Seed: 6, NumASes: 600, Regions: 12, NumTierOne: 12,
		DNSRegisteredProb: 0.55, FirewalledProb: 0.45,
	})
	st := in.Stats()
	dns := float64(st.DNSRegistered) / float64(st.Networks)
	if dns < 0.45 || dns > 0.65 {
		t.Errorf("DNS-registered fraction = %.2f, want ~0.55", dns)
	}
	fw := float64(st.Firewalled) / float64(st.Networks)
	if fw < 0.35 || fw > 0.65 {
		t.Errorf("firewalled fraction = %.2f, want ~0.5 incl. national gateways", fw)
	}
	if st.NationalGateway == 0 {
		t.Error("expected some networks behind national gateways")
	}
}

func TestHostAddrAndCapacity(t *testing.T) {
	n := &Network{Prefix: netutil.MustParsePrefix("192.168.1.0/24")}
	if n.HostCapacity() != 254 {
		t.Fatalf("HostCapacity = %d", n.HostCapacity())
	}
	if n.HostAddr(0) != netutil.MustParseAddr("192.168.1.1") {
		t.Fatalf("HostAddr(0) = %v", n.HostAddr(0))
	}
	if n.HostAddr(253) != netutil.MustParseAddr("192.168.1.254") {
		t.Fatalf("HostAddr(253) = %v", n.HostAddr(253))
	}
	tiny := &Network{Prefix: netutil.MustParsePrefix("192.168.1.4/31")}
	if tiny.HostCapacity() != 2 {
		t.Fatalf("/31 capacity = %d", tiny.HostCapacity())
	}
	if tiny.HostAddr(0) != netutil.MustParseAddr("192.168.1.4") {
		t.Fatalf("/31 HostAddr(0) = %v", tiny.HostAddr(0))
	}
}

func TestRandomHostStaysInNetwork(t *testing.T) {
	in := generate(t, smallConfig(9))
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		n := in.Networks[rng.Intn(len(in.Networks))]
		h := n.RandomHost(rng)
		if !n.Prefix.Contains(h) {
			t.Fatalf("RandomHost %v outside %v", h, n.Prefix)
		}
	}
}

func TestHostNames(t *testing.T) {
	isp := &Network{
		Prefix: netutil.MustParsePrefix("151.198.194.0/24"),
		Domain: "pool0.bellatlantic.net", PerClientNames: true,
	}
	got := isp.HostName(netutil.MustParseAddr("151.198.194.17"))
	if got != "client-151-198-194-17.pool0.bellatlantic.net" {
		t.Errorf("ISP HostName = %q", got)
	}
	uni := &Network{Prefix: netutil.MustParsePrefix("10.1.2.0/24"), Domain: "cs.wits.ac.za"}
	a := uni.HostName(netutil.MustParseAddr("10.1.2.17"))
	b := uni.HostName(netutil.MustParseAddr("10.1.2.18"))
	if !strings.HasSuffix(a, ".cs.wits.ac.za") || !strings.HasSuffix(b, ".cs.wits.ac.za") {
		t.Errorf("university names lack domain suffix: %q %q", a, b)
	}
	if a == b {
		t.Error("distinct hosts must have distinct names")
	}
	if uni.HostName(netutil.MustParseAddr("10.1.2.17")) != a {
		t.Error("HostName must be deterministic")
	}
}

func TestNameSuffix(t *testing.T) {
	cases := []struct{ in, want string }{
		{"macbeth.cs.wits.ac.za", "wits.ac.za"},
		{"foo.dummy.com", "dummy.com"},
		{"a.b", "a.b"},
		{"host", "host"},
		{"w.x.y.z", "x.y.z"},
	}
	for _, c := range cases {
		if got := NameSuffix(c.in); got != c.want {
			t.Errorf("NameSuffix(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	// The paper's own example: two cs.wits.ac.za hosts share a suffix.
	if NameSuffix("macbeth.cs.wits.ac.za") != NameSuffix("macabre.cs.wits.ac.za") {
		t.Error("hosts in one department must share the non-trivial suffix")
	}
}

func TestVantageASes(t *testing.T) {
	in := generate(t, smallConfig(11))
	vs := in.VantageASes()
	if len(vs) != 8 {
		t.Fatalf("VantageASes = %d, want 8", len(vs))
	}
	for _, as := range vs {
		if as.Tier != 1 {
			t.Fatalf("vantage AS %s has tier %d", as.Name, as.Tier)
		}
	}
}

func TestOrgKindString(t *testing.T) {
	for k, want := range map[OrgKind]string{
		OrgUniversity: "university", OrgCompany: "company",
		OrgISP: "isp", OrgGovernment: "government",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
	if !strings.Contains(OrgKind(42).String(), "42") {
		t.Error("unknown kind string should include the value")
	}
}

// NetworkByID returns the network with the given id.
func (in *Internet) NetworkByID(id int) (*Network, bool) {
	if id < 0 || id >= len(in.Networks) {
		return nil, false
	}
	return in.Networks[id], true
}
