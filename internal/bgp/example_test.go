package bgp_test

import (
	"fmt"

	"github.com/netaware/netcluster/internal/bgp"
)

// ParsePrefixEntry accepts all three 1999-era routing-dump notations.
func ExampleParsePrefixEntry() {
	for _, entry := range []string{
		"12.65.128.0/19",        // CIDR
		"12.65.128/255.255.224", // dotted netmask, zero octets dropped
		"18.0.0.0",              // bare classful Class A block
	} {
		p, _ := bgp.ParsePrefixEntry(entry)
		fmt.Println(p)
	}
	// Output:
	// 12.65.128.0/19
	// 12.65.128.0/19
	// 18.0.0.0/8
}
