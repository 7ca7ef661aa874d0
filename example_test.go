package netcluster_test

// Godoc examples for the public API: each compiles, runs under `go test`,
// and appears in `go doc` output for its symbol.

import (
	"fmt"
	"strings"

	netcluster "github.com/netaware/netcluster"
	"github.com/netaware/netcluster/internal/bgp"
	"github.com/netaware/netcluster/internal/weblog"
)

// The paper's worked example from Section 3.2.1: six clients, two
// routing-table prefixes, two clusters.
func ExampleClusterLog() {
	snapshot, _ := bgp.ReadSnapshot(strings.NewReader(
		"# name: EXAMPLE\n# kind: bgp\n" +
			"12.65.128.0/19\n" +
			"24.48.2.0/23\n"))
	table := bgp.NewMerged()
	table.Add(snapshot)

	log, _ := weblog.ReadCLF(strings.NewReader(
		`12.65.147.94 - - [13/Feb/1998:06:15:04 +0000] "GET /a.html HTTP/1.0" 200 100
12.65.147.149 - - [13/Feb/1998:06:15:05 +0000] "GET /a.html HTTP/1.0" 200 100
12.65.146.207 - - [13/Feb/1998:06:15:06 +0000] "GET /b.html HTTP/1.0" 200 200
12.65.144.247 - - [13/Feb/1998:06:15:07 +0000] "GET /c.html HTTP/1.0" 200 300
24.48.3.87 - - [13/Feb/1998:06:15:08 +0000] "GET /a.html HTTP/1.0" 200 100
24.48.2.166 - - [13/Feb/1998:06:15:09 +0000] "GET /d.html HTTP/1.0" 200 400
`), "example")

	result := netcluster.ClusterLog(log, netcluster.NetworkAware{Table: table})
	for _, c := range result.Clusters {
		fmt.Printf("%v: %d clients, %d requests\n", c.Prefix, c.NumClients(), c.Requests)
	}
	// Output:
	// 12.65.128.0/19: 4 clients, 4 requests
	// 24.48.2.0/23: 2 clients, 2 requests
}

// The simple /24 baseline mis-clusters the paper's Bell Atlantic example:
// three hosts in three distinct /28 networks land in one cluster.
func ExampleSimple() {
	log, _ := weblog.ReadCLF(strings.NewReader(
		`151.198.194.17 - - [13/Feb/1998:06:15:04 +0000] "GET /a HTTP/1.0" 200 10
151.198.194.34 - - [13/Feb/1998:06:15:05 +0000] "GET /a HTTP/1.0" 200 10
151.198.194.50 - - [13/Feb/1998:06:15:06 +0000] "GET /a HTTP/1.0" 200 10
`), "bellatlantic")
	result := netcluster.ClusterLog(log, netcluster.Simple{})
	fmt.Printf("%d cluster(s): %v\n", len(result.Clusters), result.Clusters[0].Prefix)
	// Output:
	// 1 cluster(s): 151.198.194.0/24
}

// Thresholding keeps the busy clusters that cover 70% of requests.
func ExampleResult_ThresholdBusy() {
	var lines strings.Builder
	emit := func(client string, n int) {
		for i := 0; i < n; i++ {
			fmt.Fprintf(&lines,
				"%s - - [13/Feb/1998:06:15:04 +0000] \"GET /x HTTP/1.0\" 200 10\n", client)
		}
	}
	emit("1.1.1.1", 50)
	emit("2.2.2.2", 30)
	emit("3.3.3.3", 15)
	emit("4.4.4.4", 5)
	log, _ := weblog.ReadCLF(strings.NewReader(lines.String()), "t")
	result := netcluster.ClusterLog(log, netcluster.Simple{})
	th := result.ThresholdBusy(0.70)
	fmt.Printf("%d busy of %d clusters; smallest busy cluster issues %d requests\n",
		len(th.Busy), len(result.Clusters), th.Threshold)
	// Output:
	// 2 busy of 4 clusters; smallest busy cluster issues 30 requests
}
