// Command fix is the reachability fixture's only root.
package main

import (
	"fmt"

	fixture "example.com/reachfixture"
)

func main() {
	fmt.Println(fixture.Counted(), fixture.Named{}, fixture.Sized{})
	b := &fixture.Box[int]{}
	fmt.Println(b.Get())
	var s fixture.Shape = fixture.Square{}
	fmt.Println(s.Area())
	var err error = fixture.Fault{}
	fmt.Println(err)
}
