package radix

import (
	"encoding/binary"
	"testing"

	"github.com/netaware/netcluster/internal/netutil"
)

// FuzzDynamicOps decodes bytes into insert, remove and freeze operations
// on a Dynamic. After each freeze the generation must answer like a
// Multibit built from scratch over the live keys — sequentially and
// through the batch kernel — hold in every slot what a from-scratch
// Dynamic holds (so a slot the stale mask missed fails even where no
// probe lands), and every earlier generation must still give the
// answers recorded at its freeze. Small tables re-render their arena
// every few freezes, so runs cross path copies and re-renders.
//
// Op encoding, one opcode byte b then its operands:
//
//	b%8 in 0..3  insert: addr u32 BE, bits byte (mod 33); class b>>3&1
//	b%8 in 4..5  remove the key numbered b>>3 (mod keys ever inserted)
//	b%8 == 6     freeze and check
//	b%8 == 7     insert a re-masked copy of key b>>3: bits byte (mod 33)
//
// Ranks follow the bgp compiler's rule, bits + 64 per class, under which
// Multibit's later-insertion tie rule and Dynamic's total order agree.
func FuzzDynamicOps(f *testing.F) {
	f.Add([]byte{0, 10, 0, 0, 0, 8, 0, 10, 1, 0, 0, 16, 6, 8, 10, 1, 0, 0, 16, 6, 4, 6})
	f.Add([]byte{1, 192, 168, 1, 0, 24, 7, 16, 6, 15, 20, 6, 12, 6, 2, 0, 0, 0, 0, 0, 6})
	f.Add([]byte{3, 1, 2, 3, 4, 32, 2, 1, 2, 3, 0, 24, 6, 7, 25, 7, 9, 6, 4, 12, 20, 6, 6})

	f.Fuzz(func(t *testing.T, data []byte) {
		const maxFreezes = 24
		d := NewDynamic[int]()
		live := make(map[dynKey]int)
		var keys []dynKey
		type ans struct {
			p  netutil.Prefix
			v  int
			ok bool
		}
		type pinned struct {
			f      *Frozen[int]
			probes []netutil.Addr
			want   []ans
		}
		var gens []pinned

		insert := func(p netutil.Prefix, class int) {
			k := dynKey{prefix: p, rank: int16(p.Bits() + 64*class)}
			v := len(keys)
			d.InsertRanked(p, v, int(k.rank))
			live[k] = v
			keys = append(keys, k)
		}
		freeze := func() {
			f := d.Freeze()
			checkSlots(t, f, live)
			scratch := NewMultibit[int]()
			for k, v := range live {
				scratch.InsertRanked(k.prefix, v, int(k.rank))
			}
			probes := probeSet(live)
			probes = append(probes, 0, 0xFFFFFFFF)
			rows := f.LookupBatch(probes, nil)
			g := pinned{f: f, probes: probes}
			for i, a := range probes {
				wp, wv, wok := scratch.Lookup(a)
				gp, gv, gok := f.Lookup(a)
				if gok != wok || gp != wp || gv != wv {
					t.Fatalf("freeze %d: Lookup(%v) = %v %d %v, scratch %v %d %v",
						len(gens), a, gp, gv, gok, wp, wv, wok)
				}
				if (rows[i] >= 0) != wok {
					t.Fatalf("freeze %d: LookupBatch(%v) row %d, scratch ok=%v", len(gens), a, rows[i], wok)
				}
				if wok {
					if bp, bv := f.Entry(rows[i]); bp != wp || bv != wv {
						t.Fatalf("freeze %d: LookupBatch(%v) = %v %d, scratch %v %d", len(gens), a, bp, bv, wp, wv)
					}
				}
				g.want = append(g.want, ans{gp, gv, gok})
			}
			gens = append(gens, g)
			for n, old := range gens {
				for i, a := range old.probes {
					p, v, ok := old.f.Lookup(a)
					if w := old.want[i]; p != w.p || v != w.v || ok != w.ok {
						t.Fatalf("after freeze %d: generation %d answers %v %d %v for %v, recorded %v %d %v",
							len(gens)-1, n, p, v, ok, a, w.p, w.v, w.ok)
					}
				}
			}
		}

		for len(data) > 0 && len(gens) < maxFreezes {
			b := data[0]
			data = data[1:]
			switch op := b % 8; {
			case op <= 3:
				if len(data) < 5 {
					data = nil
					break
				}
				bits := int(data[4]) % 33
				addr := netutil.Addr(binary.BigEndian.Uint32(data)) & netutil.Addr(netutil.MaskOf(bits))
				data = data[5:]
				insert(netutil.PrefixFrom(addr, bits), int(b>>3&1))
			case op <= 5:
				if len(keys) > 0 {
					k := keys[int(b>>3)%len(keys)]
					d.Remove(k.prefix, int(k.rank))
					delete(live, k)
				}
			case op == 6:
				freeze()
			default:
				if len(data) < 1 || len(keys) == 0 {
					data = nil
					break
				}
				k := keys[int(b>>3)%len(keys)]
				bits := int(data[0]) % 33
				data = data[1:]
				addr := k.prefix.Addr() & netutil.Addr(netutil.MaskOf(bits))
				insert(netutil.PrefixFrom(addr, bits), int(k.rank)/64)
			}
		}
		if len(gens) < maxFreezes {
			freeze()
		}
	})
}
