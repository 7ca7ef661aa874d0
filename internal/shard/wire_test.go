package shard

import (
	"encoding/json"
	"reflect"
	"testing"

	"github.com/netaware/netcluster/internal/bgp"
)

// FuzzDecodeDelta feeds the follower's decode path — json.Unmarshal into
// a WireDelta, then DecodeDelta — arbitrary bytes: it must never panic,
// and a delta it accepts must come back unchanged from a second trip
// over the wire (EncodeDelta, JSON, DecodeDelta), or followers of
// followers would drift.
func FuzzDecodeDelta(f *testing.F) {
	f.Add([]byte(`{"seq":17,"source":"view-3","ops":[` +
		`{"k":0,"p":"12.65.128.0/19","d":"d","nh":"192.0.2.1","as":[7018,701],"pd":"peer"},` +
		`{"w":true,"k":1,"p":"24.0.0.0/8"}]}`))
	f.Add([]byte(`{"seq":1,"ops":[]}`))
	f.Add([]byte(`{"seq":1,"ops":[{"p":"not-a-prefix"}]}`))
	f.Add([]byte(`{"seq":1,"ops":[{"p":"10.0.0.0/33"}]}`))
	f.Add([]byte(`{"seq":1,"ops":[{"p":"10.0.0.0/8","k":2}]}`))
	f.Add([]byte(`{"seq":1,"ops":[{"p":"10.1.2.3/8","as":[]}]}`))
	f.Add([]byte(`{"seq":18446744073709551615,"ops":[{"p":"0.0.0.0/0","d":"\ud800"}]}`))
	f.Add([]byte(`{"ops":[null,{}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireDelta
		if json.Unmarshal(data, &w) != nil {
			return
		}
		d, err := DecodeDelta(w)
		if err != nil {
			return
		}
		for i, op := range d.Ops {
			if op.Kind > bgp.SourceNetworkDump {
				t.Fatalf("op %d accepted with source kind %d", i, op.Kind)
			}
		}
		wire, err := json.Marshal(EncodeDelta(w.Seq, d))
		if err != nil {
			t.Fatal(err)
		}
		var w2 WireDelta
		if err := json.Unmarshal(wire, &w2); err != nil {
			t.Fatalf("re-encoded delta does not parse: %v\n%s", err, wire)
		}
		d2, err := DecodeDelta(w2)
		if err != nil {
			t.Fatalf("re-encoded delta rejected: %v\n%s", err, wire)
		}
		// An empty AS path is dropped on the wire (omitempty); nothing
		// reads the difference between that and none.
		for i := range d.Ops {
			if len(d.Ops[i].Entry.ASPath) == 0 {
				d.Ops[i].Entry.ASPath = nil
			}
		}
		if w2.Seq != w.Seq || !reflect.DeepEqual(d, d2) {
			t.Fatalf("delta changed over the wire:\n was %+v\n now %+v", d, d2)
		}
	})
}
