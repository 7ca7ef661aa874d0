package sketch

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Mergeable snapshots: a sketch serializes to a self-describing byte
// blob a peer can decode and Merge. Shard nodes summarize their slice
// of the firehose locally and ship snapshots to an aggregator; because
// plain-update count-min merges are exact, the aggregate equals the
// sketch of the whole stream. Dimension checks happen at both decode
// and merge time, so a snapshot from a differently-sized sketch is
// rejected loudly instead of silently misaligning hashes.

const (
	cmMagic = "nCM1"
	ssMagic = "nSS1"
	// maxSnapshotCells caps decoded dimensions so a hostile header
	// cannot demand an absurd allocation before validation.
	maxSnapshotCells = 1 << 28
)

// MarshalBinary encodes the sketch: magic, width, depth, total, cells.
func (c *CountMin) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+8*3+len(c.rows)*8)
	out = append(out, cmMagic...)
	out = binary.LittleEndian.AppendUint64(out, c.width)
	out = binary.LittleEndian.AppendUint64(out, uint64(c.depth))
	out = binary.LittleEndian.AppendUint64(out, c.total)
	for _, v := range c.rows {
		out = binary.LittleEndian.AppendUint64(out, v)
	}
	return out, nil
}

// UnmarshalCountMin decodes a snapshot produced by MarshalBinary.
func UnmarshalCountMin(data []byte) (*CountMin, error) {
	if len(data) < 4+8*3 || string(data[:4]) != cmMagic {
		return nil, fmt.Errorf("sketch: not a count-min snapshot")
	}
	width := binary.LittleEndian.Uint64(data[4:])
	depth := binary.LittleEndian.Uint64(data[12:])
	total := binary.LittleEndian.Uint64(data[20:])
	if width < 2 || width > maxSnapshotCells || width&(width-1) != 0 {
		return nil, fmt.Errorf("sketch: snapshot width %d is not a power of two in range", width)
	}
	// Bound each dimension before multiplying — a hostile depth must not
	// overflow the cell count into a small-looking allocation.
	if depth < 1 || depth > 64 || width*depth > maxSnapshotCells {
		return nil, fmt.Errorf("sketch: snapshot dimensions %dx%d out of range", width, depth)
	}
	body := data[28:]
	if uint64(len(body)) != width*depth*8 {
		return nil, fmt.Errorf("sketch: snapshot body %d bytes, want %d", len(body), width*depth*8)
	}
	c := newCountMin(width, int(depth))
	c.total = total
	for i := range c.rows {
		c.rows[i] = binary.LittleEndian.Uint64(body[i*8:])
	}
	// Each plain Add of weight w adds w to every row, so no row's cell
	// sum can exceed total per row; conservative update only lowers it.
	// A snapshot violating this was corrupted or hand-built.
	if maxRow := c.maxRowSum(); maxRow > total {
		return nil, fmt.Errorf("sketch: snapshot row sum %d exceeds declared total %d", maxRow, total)
	}
	return c, nil
}

func (c *CountMin) maxRowSum() uint64 {
	var max uint64
	for i := 0; i < c.depth; i++ {
		var sum uint64
		for _, v := range c.rows[uint64(i)*c.width : (uint64(i)+1)*c.width] {
			if v > math.MaxUint64-sum {
				return math.MaxUint64 // overflow: certainly > total
			}
			sum += v
		}
		if sum > max {
			max = sum
		}
	}
	return max
}

// MarshalBinary encodes the summary: magic, capacity, total,
// evictions, entry count, entries.
func (s *SpaceSaving) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 4+8*4+len(s.heap)*40)
	out = append(out, ssMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(s.capacity))
	out = binary.LittleEndian.AppendUint64(out, s.total)
	out = binary.LittleEndian.AppendUint64(out, s.evictions)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(s.heap)))
	for _, e := range s.heap {
		out = binary.LittleEndian.AppendUint64(out, e.Key)
		out = binary.LittleEndian.AppendUint64(out, e.Count)
		out = binary.LittleEndian.AppendUint64(out, e.Err)
		out = binary.LittleEndian.AppendUint64(out, e.Bytes)
		out = binary.LittleEndian.AppendUint64(out, e.ByteErr)
	}
	return out, nil
}

// UnmarshalSpaceSaving decodes a snapshot produced by MarshalBinary.
func UnmarshalSpaceSaving(data []byte) (*SpaceSaving, error) {
	if len(data) < 4+8*4 || string(data[:4]) != ssMagic {
		return nil, fmt.Errorf("sketch: not a space-saving snapshot")
	}
	capacity := binary.LittleEndian.Uint64(data[4:])
	total := binary.LittleEndian.Uint64(data[12:])
	evictions := binary.LittleEndian.Uint64(data[20:])
	n := binary.LittleEndian.Uint64(data[28:])
	if capacity < 1 || capacity > maxSnapshotCells {
		return nil, fmt.Errorf("sketch: snapshot capacity %d out of range", capacity)
	}
	if n > capacity {
		return nil, fmt.Errorf("sketch: snapshot has %d entries over capacity %d", n, capacity)
	}
	body := data[36:]
	if uint64(len(body)) != n*40 {
		return nil, fmt.Errorf("sketch: snapshot body %d bytes, want %d", len(body), n*40)
	}
	s := NewSpaceSaving(int(capacity))
	s.total = total
	s.evictions = evictions
	var countSum uint64
	for i := uint64(0); i < n; i++ {
		e := Entry{
			Key:     binary.LittleEndian.Uint64(body[i*40:]),
			Count:   binary.LittleEndian.Uint64(body[i*40+8:]),
			Err:     binary.LittleEndian.Uint64(body[i*40+16:]),
			Bytes:   binary.LittleEndian.Uint64(body[i*40+24:]),
			ByteErr: binary.LittleEndian.Uint64(body[i*40+32:]),
		}
		if e.Err > e.Count || e.ByteErr > e.Bytes {
			return nil, fmt.Errorf("sketch: snapshot entry %d slack exceeds its bound", i)
		}
		slot, dup := s.find(e.Key)
		if dup {
			return nil, fmt.Errorf("sketch: snapshot repeats key %#x", e.Key)
		}
		if e.Count > math.MaxUint64-countSum {
			return nil, fmt.Errorf("sketch: snapshot counts overflow")
		}
		countSum += e.Count
		s.push(slot, e)
	}
	return s, nil
}
