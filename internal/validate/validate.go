// Package validate implements the paper's Section 3.3 cluster validation:
// sample a fraction of the identified clusters and test each with
//
//   - the nslookup method: every resolvable client in a cluster must share
//     the non-trivial domain-name suffix with the others; and
//   - the optimized-traceroute method: clients resolve to a name when
//     possible (suffix-matched as above) and otherwise to the last two
//     hops of the probed path, which must match within the cluster.
//
// Because our world is synthetic, the package can also score each cluster
// against ground truth (all clients in one true network), which the paper
// cannot do — experiments report both.
package validate

import (
	"math/rand"
	"sort"
	"strings"

	"github.com/netaware/netcluster/internal/cluster"
	"github.com/netaware/netcluster/internal/inet"
	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/tracesim"
)

// NameResolver yields the non-trivial DNS suffix of a client address, or
// ok == false when the name does not resolve. dnssim.Resolver implements
// it as a pure function.
type NameResolver interface {
	Suffix(addr netutil.Addr) (string, bool)
}

// Sample draws approximately frac of the clusters (at least one, when any
// exist) uniformly at random but deterministically in seed. The paper
// samples 1%.
func Sample(clusters []*cluster.Cluster, frac float64, seed int64) []*cluster.Cluster {
	if len(clusters) == 0 || frac <= 0 {
		return nil
	}
	k := int(float64(len(clusters)) * frac)
	if k < 1 {
		k = 1
	}
	if k > len(clusters) {
		k = len(clusters)
	}
	rng := rand.New(rand.NewSource(seed))
	idx := rng.Perm(len(clusters))[:k]
	sort.Ints(idx)
	out := make([]*cluster.Cluster, k)
	for i, j := range idx {
		out[i] = clusters[j]
	}
	return out
}

// ClusterVerdict is the validation outcome for one sampled cluster.
type ClusterVerdict struct {
	Cluster *cluster.Cluster
	// Pass is the method's verdict: no detected suffix disagreement.
	Pass bool
	// Resolvable counts clients the method could key (for nslookup: names
	// resolved; for traceroute: always all clients).
	Resolvable int
	// NonUS reports whether the cluster's clients sit outside the US
	// (ground truth), for the paper's non-US failure breakdown.
	NonUS bool
	// TrulyCorrect is the ground-truth verdict: every client in one true
	// network. Unavailable to the paper; exact here.
	TrulyCorrect bool
}

// Report aggregates verdicts into Table 3's rows.
type Report struct {
	Method             string
	SampledClusters    int
	SampledClients     int
	ReachableClients   int
	Misidentified      int
	MisidentifiedNonUS int
	TrulyIncorrect     int
	Verdicts           []ClusterVerdict
}

// PassRate is the fraction of sampled clusters passing the method's test.
func (r Report) PassRate() float64 {
	if r.SampledClusters == 0 {
		return 0
	}
	return 1 - float64(r.Misidentified)/float64(r.SampledClusters)
}

// clientsOf returns a cluster's clients in deterministic order.
func clientsOf(c *cluster.Cluster) []netutil.Addr {
	out := make([]netutil.Addr, 0, len(c.Clients))
	for a := range c.Clients {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// groundTruth fills the NonUS and TrulyCorrect fields from the world.
func groundTruth(world *inet.Internet, c *cluster.Cluster, v *ClusterVerdict) {
	nets := make(map[int]struct{})
	for _, a := range clientsOf(c) {
		n, ok := world.NetworkOf(a)
		if !ok {
			v.TrulyCorrect = false
			return
		}
		nets[n.ID] = struct{}{}
		if n.Country.Code != "us" {
			v.NonUS = true
		}
	}
	v.TrulyCorrect = len(nets) == 1
}

// Nslookup validates sampled clusters with the DNS suffix test. A cluster
// fails when two resolvable clients carry different non-trivial suffixes;
// clusters with fewer than two resolvable clients cannot be falsified and
// pass, as in the paper's methodology.
func Nslookup(world *inet.Internet, resolver NameResolver, sampled []*cluster.Cluster) (rep Report) {
	rep = Report{Method: "nslookup", SampledClusters: len(sampled)}
	for _, c := range sampled {
		v := ClusterVerdict{Cluster: c, Pass: true}
		var suffix string
		for _, a := range clientsOf(c) {
			rep.SampledClients++
			s, ok := resolver.Suffix(a)
			if !ok {
				continue
			}
			rep.ReachableClients++
			v.Resolvable++
			if suffix == "" {
				suffix = s
			} else if s != suffix {
				v.Pass = false
			}
		}
		groundTruth(world, c, &v)
		if !v.Pass {
			rep.Misidentified++
			if v.NonUS {
				rep.MisidentifiedNonUS++
			}
		}
		if !v.TrulyCorrect {
			rep.TrulyIncorrect++
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep
}

// Traceroute validates sampled clusters with the optimized-traceroute
// test: clients whose names resolve are suffix-matched on names; the rest
// are matched on the last two hops of the probed path. Either group
// disagreeing fails the cluster.
func Traceroute(world *inet.Internet, resolver NameResolver, tracer *tracesim.Tracer, sampled []*cluster.Cluster) (rep Report) {
	rep = Report{Method: "traceroute", SampledClusters: len(sampled)}
	for _, c := range sampled {
		v := ClusterVerdict{Cluster: c, Pass: true}
		var nameSuffix, pathSuffix string
		for _, a := range clientsOf(c) {
			rep.SampledClients++
			rep.ReachableClients++ // traceroute keys every client
			v.Resolvable++
			if s, ok := resolver.Suffix(a); ok {
				if nameSuffix == "" {
					nameSuffix = s
				} else if s != nameSuffix {
					v.Pass = false
				}
				continue
			}
			key := strings.Join(tracer.OptimizedPath(a).PathSuffix(2), "|")
			if pathSuffix == "" {
				pathSuffix = key
			} else if key != pathSuffix {
				v.Pass = false
			}
		}
		groundTruth(world, c, &v)
		if !v.Pass {
			rep.Misidentified++
			if v.NonUS {
				rep.MisidentifiedNonUS++
			}
		}
		if !v.TrulyCorrect {
			rep.TrulyIncorrect++
		}
		rep.Verdicts = append(rep.Verdicts, v)
	}
	return rep
}

// PrefixLen24Share reports how many sampled clusters have a /24 prefix —
// the paper's measure of how often the simple approach's universal-/24
// assumption holds (48.6% on Nagano, hence "fails in over 50% of cases").
func PrefixLen24Share(sampled []*cluster.Cluster) (count int, share float64) {
	for _, c := range sampled {
		if c.Prefix.Bits() == 24 {
			count++
		}
	}
	if len(sampled) > 0 {
		share = float64(count) / float64(len(sampled))
	}
	return count, share
}

// PrefixLenRange returns the min and max prefix lengths among sampled
// clusters (Table 3's "Prefix length range" row).
func PrefixLenRange(sampled []*cluster.Cluster) (min, max int) {
	if len(sampled) == 0 {
		return 0, 0
	}
	min, max = sampled[0].Prefix.Bits(), sampled[0].Prefix.Bits()
	for _, c := range sampled[1:] {
		b := c.Prefix.Bits()
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	return min, max
}
