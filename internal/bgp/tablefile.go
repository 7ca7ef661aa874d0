package bgp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"github.com/netaware/netcluster/internal/netutil"
	"github.com/netaware/netcluster/internal/radix"
)

// Table snapshot codec: a versioned, checksummed, mmap-friendly on-disk
// form of Compiled. The flat int32 arrays of the frozen match structure
// are written verbatim (little-endian, 8-byte-aligned sections), so on a
// little-endian host a loader can point the table straight into a
// memory-mapped file — a clusterd restart or a joining shard node gets a
// multi-million-prefix table for the cost of a page-table setup plus one
// linear validation pass, instead of a full recompile.
//
// File layout (version 1, all fields little-endian):
//
//	header:
//	  magic      [8]byte  "NCTABLE\x00"
//	  version    uint32   1
//	  flags      uint32   reserved, 0
//	  headerLen  uint32   296 in v1
//	  headerCRC  uint32   CRC32C of the header with this field zeroed
//	  bodyCRC    uint32   CRC32C of everything after the header
//	  reserved   uint32
//	  counts     10×uint32: numNodes, numRows, liveSize, numPrimary,
//	             numSecondary, numProv, numSourceRefs, numStrings,
//	             strBytes, reserved
//	  sections   14×{offset uint64, length uint64}
//	body: the sections, each at an 8-byte-aligned offset, zero-padded
//	between; lengths are exact (computed from the counts), so a valid
//	header fully determines every section's extent — no over-reads.
//
// Sections, in file order: the match structure — children and slots
// int32 blocks, then the entry tables as parallel prefix/rank/kind
// columns — then the provenance sidecar: one row per unique prefix in
// the primary-shadows-secondary view, sorted by (addr, bits) for binary
// search, with source names in a deduplicated string table.
//
// The entry prefix column stores one 8-byte record per row: addr uint32
// at offset 0, mask bits uint8 at offset 4, three zero pad bytes. That
// is byte-for-byte the in-memory layout of netutil.Prefix on a
// little-endian host (checked at load time by a layout probe, never
// assumed), so the dominant per-row cost of a load — materializing a
// million-element prefix slice — disappears on the mmap path: the
// column is the slice.
//
// Version/compat rule: readers accept exactly one version. Any layout
// change — new section, field width, different ordering — bumps the
// version, and old readers reject new files (and vice versa) at the
// header check rather than misparsing. There is no in-place migration:
// a snapshot is a cache of a deterministic compile, so the upgrade path
// is always "recompile and re-save", never "convert".
const (
	tableMagic      = "NCTABLE\x00"
	tableVersion    = 1
	tableHeaderLen  = 296
	tableNumSection = 14
)

// Section indexes into the header's section table.
const (
	secChildren = iota
	secSlots
	secEntryPrefix
	secEntryRank
	secEntryKind
	secProvAddr
	secProvBits
	secProvClass
	secProvRecKind
	secProvAS
	secProvSrcStart
	secSourceRefs
	secStrOffsets
	secStrBytes
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// tableHeader is the decoded header plus the bounds-checked raw section
// payloads. Section slices alias the input buffer; decoders choose
// whether to copy out of them or cast in place.
type tableHeader struct {
	numNodes, numRows, liveSize int
	numPrimary, numSecondary    int
	numProv, numSourceRefs      int
	numStrings, strBytes        int
	bodyCRC                     uint32
	sec                         [tableNumSection][]byte
}

// secLengths returns the exact byte length of every section implied by
// the header counts. Keeping this a single table is what guarantees the
// writer and both readers agree on extents.
func (h *tableHeader) secLengths() [tableNumSection]uint64 {
	slots := uint64(h.numNodes) * 256
	return [tableNumSection]uint64{
		secChildren:     slots * 4,
		secSlots:        slots * 4,
		secEntryPrefix:  uint64(h.numRows) * 8,
		secEntryRank:    uint64(h.numRows) * 2,
		secEntryKind:    uint64(h.numRows),
		secProvAddr:     uint64(h.numProv) * 4,
		secProvBits:     uint64(h.numProv),
		secProvClass:    uint64(h.numProv),
		secProvRecKind:  uint64(h.numProv),
		secProvAS:       uint64(h.numProv) * 4,
		secProvSrcStart: uint64(h.numProv+1) * 4,
		secSourceRefs:   uint64(h.numSourceRefs) * 4,
		secStrOffsets:   uint64(h.numStrings+1) * 4,
		secStrBytes:     uint64(h.strBytes),
	}
}

// parseTableHeader validates everything a reader must trust before
// touching the body: magic, version, header checksum, count sanity, and
// that every section lies inside the buffer with exactly the length the
// counts imply.
func parseTableHeader(data []byte) (*tableHeader, error) {
	if len(data) < tableHeaderLen {
		return nil, fmt.Errorf("table snapshot: %d bytes, need at least the %d-byte header", len(data), tableHeaderLen)
	}
	if string(data[:8]) != tableMagic {
		return nil, fmt.Errorf("table snapshot: bad magic %q", data[:8])
	}
	le := binary.LittleEndian
	if v := le.Uint32(data[8:]); v != tableVersion {
		return nil, fmt.Errorf("table snapshot: version %d, this reader handles only %d (recompile and re-save)", v, tableVersion)
	}
	if hl := le.Uint32(data[16:]); hl != tableHeaderLen {
		return nil, fmt.Errorf("table snapshot: header length %d, want %d", hl, tableHeaderLen)
	}
	var hdr [tableHeaderLen]byte
	copy(hdr[:], data[:tableHeaderLen])
	le.PutUint32(hdr[20:], 0) // headerCRC field is zeroed during the sum
	if got, want := crc32.Checksum(hdr[:], crcTable), le.Uint32(data[20:]); got != want {
		return nil, fmt.Errorf("table snapshot: header checksum mismatch (got %08x, stored %08x)", got, want)
	}

	h := &tableHeader{bodyCRC: le.Uint32(data[24:])}
	counts := []*int{
		&h.numNodes, &h.numRows, &h.liveSize, &h.numPrimary, &h.numSecondary,
		&h.numProv, &h.numSourceRefs, &h.numStrings, &h.strBytes,
	}
	for i, dst := range counts {
		v := le.Uint32(data[32+4*i:])
		if v > 1<<31-1 {
			return nil, fmt.Errorf("table snapshot: count %d out of range (%d)", i, v)
		}
		*dst = int(v)
	}
	if h.numNodes < 1 || h.numNodes > (1<<31-1)/256 {
		return nil, fmt.Errorf("table snapshot: node count %d out of range", h.numNodes)
	}

	want := h.secLengths()
	for i := 0; i < tableNumSection; i++ {
		off := le.Uint64(data[72+16*i:])
		length := le.Uint64(data[72+16*i+8:])
		if length != want[i] {
			return nil, fmt.Errorf("table snapshot: section %d length %d, counts imply %d", i, length, want[i])
		}
		if off%8 != 0 || off < tableHeaderLen || off > uint64(len(data)) || length > uint64(len(data))-off {
			return nil, fmt.Errorf("table snapshot: section %d [%d,+%d) outside %d-byte file", i, off, length, len(data))
		}
		h.sec[i] = data[off : off+length : off+length]
	}
	return h, nil
}

// u32At / i32At / i16At read the i-th element of a little-endian column.
func u32At(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i*4:]) }
func i16At(b []byte, i int) int16  { return int16(binary.LittleEndian.Uint16(b[i*2:])) }

// buildEntries decodes (and validates) the entry columns into the slice
// forms the frozen table wants — the strict loader's element-wise path.
// The zero-copy loader replaces it with in-place casts of the same
// sections (see tablefile_zerocopy.go); corrupt entry content there is
// caught by the full-integrity tools, not the boot path.
func buildEntries(h *tableHeader) (prefixes []netutil.Prefix, values []compiledValue, err error) {
	recs, kinds := h.sec[secEntryPrefix], h.sec[secEntryKind]
	prefixes = make([]netutil.Prefix, h.numRows)
	values = make([]compiledValue, h.numRows)
	for i := 0; i < h.numRows; i++ {
		rec := recs[i*8 : i*8+8]
		a, b := binary.LittleEndian.Uint32(rec), int(rec[4])
		if b > 32 || a&^uint32(netutil.MaskOf(b)) != 0 {
			return nil, nil, fmt.Errorf("table snapshot: entry row %d: invalid prefix %08x/%d", i, a, b)
		}
		if rec[5]|rec[6]|rec[7] != 0 {
			return nil, nil, fmt.Errorf("table snapshot: entry row %d: nonzero prefix padding", i)
		}
		if kinds[i] > 1 {
			return nil, nil, fmt.Errorf("table snapshot: entry row %d: unknown source kind %d", i, kinds[i])
		}
		prefixes[i] = netutil.PrefixFrom(netutil.Addr(a), b)
		values[i] = compiledValue{kind: SourceKind(kinds[i])}
	}
	return prefixes, values, nil
}

// buildSnapTable wraps the provenance sidecar's columns. The byte-column
// slices alias the file buffer on both load paths (they are already in
// their in-memory form); u32 columns are materialized by the
// caller-provided loader. No content validation happens here — the
// strict loader follows up with validateSnapTable, while the mmap path
// skips it and relies on the accessors' bounds guards instead, so a
// million-row sidecar costs nothing at load and a corrupt one degrades
// to wrong-but-safe provenance answers rather than a slow boot.
func buildSnapTable(h *tableHeader, u32col func(sec int, n int) ([]uint32, error)) (*snapTable, error) {
	s := &snapTable{
		bits:    h.sec[secProvBits],
		class:   h.sec[secProvClass],
		recKind: h.sec[secProvRecKind],
		strData: h.sec[secStrBytes],
	}
	var err error
	if s.addr, err = u32col(secProvAddr, h.numProv); err != nil {
		return nil, err
	}
	if s.originAS, err = u32col(secProvAS, h.numProv); err != nil {
		return nil, err
	}
	if s.srcStart, err = u32col(secProvSrcStart, h.numProv+1); err != nil {
		return nil, err
	}
	if s.srcRefs, err = u32col(secSourceRefs, h.numSourceRefs); err != nil {
		return nil, err
	}
	if s.strOff, err = u32col(secStrOffsets, h.numStrings+1); err != nil {
		return nil, err
	}
	return s, nil
}

// validateSnapTable is the full content check of the provenance sidecar:
// canonical sorted prefixes, known class/kind codes, and monotonic
// source-ref and string indexes that span exactly their tables. The
// strict loader (ReadTable, and therefore VerifyTable and the fuzz
// target) runs it; the mmap boot path defers it to the guarded
// accessors.
func validateSnapTable(h *tableHeader, s *snapTable) error {
	for i := 0; i < h.numProv; i++ {
		b := int(s.bits[i])
		if b > 32 || s.addr[i]&^uint32(netutil.MaskOf(b)) != 0 {
			return fmt.Errorf("table snapshot: provenance row %d: invalid prefix %08x/%d", i, s.addr[i], b)
		}
		if s.class[i] > 1 || s.recKind[i] > 1 {
			return fmt.Errorf("table snapshot: provenance row %d: unknown class/kind", i)
		}
		if i > 0 && !provRowOrdered(s.addr[i-1], s.bits[i-1], s.class[i-1], s.addr[i], s.bits[i], s.class[i]) {
			return fmt.Errorf("table snapshot: provenance rows %d/%d out of order", i-1, i)
		}
	}
	if s.srcStart[0] != 0 || s.srcStart[h.numProv] != uint32(h.numSourceRefs) {
		return fmt.Errorf("table snapshot: source-ref index does not span the ref table")
	}
	for i := 0; i < h.numProv; i++ {
		if s.srcStart[i] > s.srcStart[i+1] {
			return fmt.Errorf("table snapshot: source-ref index decreases at row %d", i)
		}
	}
	for i, r := range s.srcRefs {
		if r >= uint32(h.numStrings) {
			return fmt.Errorf("table snapshot: source ref %d points past the %d-entry string table", i, h.numStrings)
		}
	}
	if s.strOff[0] != 0 || s.strOff[h.numStrings] != uint32(h.strBytes) {
		return fmt.Errorf("table snapshot: string-offset index does not span the string table")
	}
	for i := 0; i < h.numStrings; i++ {
		if s.strOff[i] > s.strOff[i+1] {
			return fmt.Errorf("table snapshot: string offsets decrease at %d", i)
		}
	}
	return nil
}

func provRowLess(a1 uint32, b1 byte, a2 uint32, b2 byte) bool {
	return a1 < a2 || (a1 == a2 && b1 < b2)
}

// provRowOrdered is the strict row order of the provenance section:
// (addr, bits, class) ascending. Class is the tiebreak — a dual-class
// prefix stores two rows, primary first, so find()'s first hit is the
// primary record.
func provRowOrdered(a1 uint32, b1, c1 byte, a2 uint32, b2, c2 byte) bool {
	return provRowLess(a1, b1, a2, b2) || (a1 == a2 && b1 == b2 && c1 < c2)
}

// assembleCompiled finishes either load path once the arrays exist.
func assembleCompiled(h *tableHeader, children, slots []int32, prefixes []netutil.Prefix, ranks []int16, values []compiledValue, snap *snapTable) (*Compiled, error) {
	frozen, err := radix.NewFrozen(children, slots, prefixes, ranks, values, h.liveSize)
	if err != nil {
		return nil, fmt.Errorf("table snapshot: %w", err)
	}
	c := &Compiled{
		frozen:       frozen,
		snap:         snap,
		numPrimary:   h.numPrimary,
		numSecondary: h.numSecondary,
	}
	compiledPrefixes.Set(int64(c.Len()))
	compiledNodes.Set(int64(frozen.NumNodes()))
	return c, nil
}

// ReadTable decodes a table snapshot from memory with no unsafe tricks:
// every multi-byte column is copied out element-wise through
// encoding/binary, so it works on any architecture and any alignment.
// The full body checksum is verified first, making this the
// strict/portable loader (and the fuzzing surface). For the fast path
// over a file, use OpenTable.
func ReadTable(data []byte) (*Compiled, error) {
	h, err := parseTableHeader(data)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(data[tableHeaderLen:], crcTable); got != h.bodyCRC {
		return nil, fmt.Errorf("table snapshot: body checksum mismatch (got %08x, stored %08x)", got, h.bodyCRC)
	}

	copyI32 := func(sec int, n int) []int32 {
		b := h.sec[sec]
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(u32At(b, i))
		}
		return out
	}
	nSlots := h.numNodes * 256
	children := copyI32(secChildren, nSlots)
	slots := copyI32(secSlots, nSlots)
	ranks := make([]int16, h.numRows)
	for i := range ranks {
		ranks[i] = i16At(h.sec[secEntryRank], i)
	}
	prefixes, values, err := buildEntries(h)
	if err != nil {
		return nil, err
	}
	snap, err := buildSnapTable(h, func(sec int, n int) ([]uint32, error) {
		b := h.sec[sec]
		out := make([]uint32, n)
		for i := range out {
			out[i] = u32At(b, i)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	if err := validateSnapTable(h, snap); err != nil {
		return nil, err
	}
	return assembleCompiled(h, children, slots, prefixes, ranks, values, snap)
}

// MarshalTable serializes c into the snapshot format. The resulting
// bytes round-trip through ReadTable/OpenTable to a table whose lookups
// and provenance answers are identical to c's at the time of the call
// (a table published by an Incremental is captured as of now — later
// deltas do not appear in the snapshot). The match structure is written
// in radix.Frozen.Raw's canonical layout — root first, breadth-first,
// only reachable nodes — whatever blocks a path-copied generation holds,
// so a loaded table re-marshals to the same bytes.
func MarshalTable(c *Compiled) ([]byte, error) {
	children, slots, prefixes, ranks, values, size := c.frozen.Raw()
	rows := provRowsOf(c)

	// String table: source names deduplicated in first-seen order.
	strIndex := make(map[string]uint32)
	var strings []string
	strBytes := 0
	numRefs := 0
	for _, r := range rows {
		numRefs += len(r.sources)
		for _, s := range r.sources {
			if _, ok := strIndex[s]; !ok {
				strIndex[s] = uint32(len(strings))
				strings = append(strings, s)
				strBytes += len(s)
			}
		}
	}

	h := &tableHeader{
		numNodes:      len(children) / 256,
		numRows:       len(prefixes),
		liveSize:      size,
		numPrimary:    c.numPrimary,
		numSecondary:  c.numSecondary,
		numProv:       len(rows),
		numSourceRefs: numRefs,
		numStrings:    len(strings),
		strBytes:      strBytes,
	}
	lengths := h.secLengths()
	offsets := [tableNumSection]uint64{}
	pos := uint64(tableHeaderLen)
	for i, l := range lengths {
		offsets[i] = pos
		pos += (l + 7) &^ 7
	}
	buf := make([]byte, pos)
	le := binary.LittleEndian

	put32 := func(sec int, i int, v uint32) { le.PutUint32(buf[offsets[sec]+uint64(i)*4:], v) }
	for i, v := range children {
		put32(secChildren, i, uint32(v))
	}
	for i, v := range slots {
		put32(secSlots, i, uint32(v))
	}
	for i, p := range prefixes {
		// The 8-byte prefix record: addr, bits, three zero pads (buf is
		// zero-initialized, so the pads need no explicit writes).
		le.PutUint32(buf[offsets[secEntryPrefix]+uint64(i)*8:], uint32(p.Addr()))
		buf[offsets[secEntryPrefix]+uint64(i)*8+4] = byte(p.Bits())
		le.PutUint16(buf[offsets[secEntryRank]+uint64(i)*2:], uint16(ranks[i]))
		buf[offsets[secEntryKind]+uint64(i)] = byte(values[i].kind)
	}
	ref := 0
	for i, r := range rows {
		put32(secProvAddr, i, uint32(r.p.Addr()))
		buf[offsets[secProvBits]+uint64(i)] = byte(r.p.Bits())
		buf[offsets[secProvClass]+uint64(i)] = r.class
		buf[offsets[secProvRecKind]+uint64(i)] = byte(r.kind)
		put32(secProvAS, i, r.originAS)
		put32(secProvSrcStart, i, uint32(ref))
		for _, s := range r.sources {
			put32(secSourceRefs, ref, strIndex[s])
			ref++
		}
	}
	put32(secProvSrcStart, len(rows), uint32(ref))
	sb := 0
	for i, s := range strings {
		put32(secStrOffsets, i, uint32(sb))
		copy(buf[offsets[secStrBytes]+uint64(sb):], s)
		sb += len(s)
	}
	put32(secStrOffsets, len(strings), uint32(sb))

	// Header: counts and section table first, then the checksums.
	copy(buf, tableMagic)
	le.PutUint32(buf[8:], tableVersion)
	le.PutUint32(buf[12:], 0) // flags
	le.PutUint32(buf[16:], tableHeaderLen)
	counts := []int{
		h.numNodes, h.numRows, h.liveSize, h.numPrimary, h.numSecondary,
		h.numProv, h.numSourceRefs, h.numStrings, h.strBytes, 0,
	}
	for i, v := range counts {
		le.PutUint32(buf[32+4*i:], uint32(v))
	}
	for i := 0; i < tableNumSection; i++ {
		le.PutUint64(buf[72+16*i:], offsets[i])
		le.PutUint64(buf[72+16*i+8:], lengths[i])
	}
	le.PutUint32(buf[24:], crc32.Checksum(buf[tableHeaderLen:], crcTable)) // bodyCRC
	le.PutUint32(buf[20:], 0)
	le.PutUint32(buf[20:], crc32.Checksum(buf[:tableHeaderLen], crcTable)) // headerCRC
	return buf, nil
}

// SaveTable writes c's snapshot to path atomically (temp file + rename
// in the destination directory), so a crashed save never leaves a
// half-written table where a boot path will find it.
func SaveTable(path string, c *Compiled) error {
	data, err := MarshalTable(c)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".nctable-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// provRow is the marshaling view of one provenance record.
type provRow struct {
	p        netutil.Prefix
	class    byte // 0 primary, 1 secondary — decides KindOf
	kind     SourceKind
	originAS uint32
	sources  []string
}

// provRowsOf flattens c's provenance store — whichever backend it has —
// into one row per (prefix, class), sorted by (addr, bits, class). A
// prefix present in both source classes yields two adjacent rows with
// the primary first, so exact-prefix queries (which take the first hit)
// keep the prefer-primary semantics while a warm start can reconstruct
// the full per-class entry set — including secondary entries shadowed
// by a same-prefix primary, which a single-row view would lose.
func provRowsOf(c *Compiled) []provRow {
	var rows []provRow
	switch {
	case c.inc != nil:
		c.inc.mu.RLock()
		for class := byte(0); class <= 1; class++ {
			for p, pv := range c.inc.prov[class] {
				rows = append(rows, provRow{p, class, pv.Kind, pv.OriginAS, pv.Sources})
			}
		}
		c.inc.mu.RUnlock()
	case c.snap != nil:
		s := c.snap
		rows = make([]provRow, len(s.addr))
		for i := range s.addr {
			rows[i] = provRow{
				p:        netutil.PrefixFrom(netutil.Addr(s.addr[i]), int(s.bits[i])),
				class:    s.class[i],
				kind:     SourceKind(s.recKind[i]),
				originAS: s.originAS[i],
				sources:  s.sources(i),
			}
		}
		return rows // already sorted
	default:
		for p, pv := range c.prov {
			class := byte(1)
			if c.kinds[p] == SourceBGP {
				class = 0
			}
			rows = append(rows, provRow{p, class, pv.Kind, pv.OriginAS, pv.Sources})
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		return provRowOrdered(uint32(rows[i].p.Addr()), byte(rows[i].p.Bits()), rows[i].class,
			uint32(rows[j].p.Addr()), byte(rows[j].p.Bits()), rows[j].class)
	})
	return rows
}

// snapTable serves exact-prefix provenance queries for a loaded table by
// binary search over the sorted on-disk columns — which may alias a
// memory-mapped file, so a query touches only the pages it needs.
// Provenance records are built per call: snapshot provenance is the cold
// path (reports, debugging), and staying lazy keeps load time inside the
// milliseconds budget.
//
// On the mmap path the column *content* is unvalidated (only the column
// extents are header-checked), so every accessor that follows an index
// stored in the file bounds-checks it before use: corrupt sidecar bytes
// may yield wrong or missing provenance, never a panic or an over-read.
type snapTable struct {
	addr     []uint32
	bits     []byte
	class    []byte
	recKind  []byte
	originAS []uint32
	srcStart []uint32
	srcRefs  []uint32
	strOff   []uint32
	strData  []byte
}

func (s *snapTable) find(p netutil.Prefix) (int, bool) {
	a, b := uint32(p.Addr()), byte(p.Bits())
	i := sort.Search(len(s.addr), func(i int) bool {
		return !provRowLess(s.addr[i], s.bits[i], a, b)
	})
	if i < len(s.addr) && s.addr[i] == a && s.bits[i] == b {
		return i, true
	}
	return 0, false
}

func (s *snapTable) sources(i int) []string {
	lo, hi := s.srcStart[i], s.srcStart[i+1]
	if lo >= hi || hi > uint32(len(s.srcRefs)) {
		return nil
	}
	out := make([]string, 0, hi-lo)
	for _, ref := range s.srcRefs[lo:hi] {
		if ref+1 >= uint32(len(s.strOff)) {
			continue
		}
		o1, o2 := s.strOff[ref], s.strOff[ref+1]
		if o1 > o2 || o2 > uint32(len(s.strData)) {
			continue
		}
		out = append(out, string(s.strData[o1:o2]))
	}
	return out
}

func (s *snapTable) provenance(p netutil.Prefix) (*Provenance, bool) {
	i, ok := s.find(p)
	if !ok {
		return nil, false
	}
	return &Provenance{
		Sources:  s.sources(i),
		Kind:     SourceKind(s.recKind[i]),
		OriginAS: s.originAS[i],
	}, true
}

func (s *snapTable) kindOf(p netutil.Prefix) (SourceKind, bool) {
	i, ok := s.find(p)
	if !ok {
		return SourceBGP, false
	}
	if s.class[i] == 0 {
		return SourceBGP, true
	}
	return SourceNetworkDump, true
}

// TableFile is an open table snapshot. When the load took the mmap fast
// path, the table's arrays alias the mapping: the TableFile must be kept
// alive (and not Closed) for as long as the table is in use.
type TableFile struct {
	c      *Compiled
	unmap  func() error
	mapped bool
}

// Table returns the loaded table.
func (t *TableFile) Table() *Compiled { return t.c }

// Mapped reports whether the table aliases a memory-mapped file (the
// zero-copy fast path) rather than heap copies.
func (t *TableFile) Mapped() bool { return t.mapped }

// Close releases the file mapping, if any. The table is invalid after
// Close on a mapped file — any further lookup may fault.
func (t *TableFile) Close() error {
	t.c = nil
	if t.unmap != nil {
		u := t.unmap
		t.unmap = nil
		return u()
	}
	return nil
}

// OpenTable loads a table snapshot from path, preferring the zero-copy
// path: the file is memory-mapped and the int32/int16 columns of the
// match structure are used in place (little-endian hosts only — the
// format is defined little-endian). The mmap path verifies the header
// checksum and every structural invariant the lookup walk relies on,
// but skips the full-body CRC so loading a multi-million-prefix table
// stays in single-digit milliseconds; `tabletool verify` and ReadTable
// do the full integrity check. Hosts or builds without mmap fall back
// to the copying loader transparently.
func OpenTable(path string) (*TableFile, error) {
	if data, unmap, err := mapFile(path); err == nil {
		c, derr := loadMapped(data)
		if derr == nil {
			return &TableFile{c: c, unmap: unmap, mapped: true}, nil
		}
		unmap()
		// A structurally invalid file is invalid on any path: report it
		// rather than re-reading it just to fail again. Only a host that
		// cannot alias the bytes (endianness/alignment) falls through.
		if !errors.Is(derr, errNoZeroCopy) {
			return nil, derr
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	c, err := ReadTable(data)
	if err != nil {
		return nil, err
	}
	return &TableFile{c: c}, nil
}

// VerifyTable runs the full integrity check on a snapshot in memory:
// header and body checksums plus every structural validation, by way of
// the portable loader. It returns the loaded table so callers (the
// tabletool verify subcommand) can continue with semantic spot checks.
func VerifyTable(data []byte) (*Compiled, error) {
	return ReadTable(data)
}
