package bgp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// TableMeta is the .nct snapshot's sidecar record: where in the delta
// stream the saved table sits. A snapshot alone is a frozen point in
// time; the sidecar's generation/sequence pair is what turns it into a
// warm start — a rebooting clusterd (or a joining shard node) loads the
// table, seeds its generation counter from Generation, and asks the
// delta feed for everything after Seq instead of starting cold or
// serving stale forever.
//
// Generation is the churn-table generation the snapshot captured; Seq is
// the feed sequence number at the same instant. In a lockstep cluster
// the two are equal (each streamed delta is one generation); they are
// kept as separate fields so a table compiled offline (tabletool
// compile: generation 0, never on a feed) is distinguishable from one
// saved mid-stream.
type TableMeta struct {
	Generation uint64 `json:"generation"`
	Seq        uint64 `json:"seq"`
}

// MetaPath returns the sidecar path for a table snapshot path:
// "<table>.nct" → "<table>.nct.meta".
func MetaPath(tablePath string) string { return tablePath + ".meta" }

// SaveTableMeta writes the sidecar for the snapshot at tablePath,
// atomically (temp + rename), mirroring SaveTable's crash discipline.
func SaveTableMeta(tablePath string, m TableMeta) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	data = append(data, '\n')
	dir := filepath.Dir(tablePath)
	tmp, err := os.CreateTemp(dir, ".nctmeta-*")
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
	return os.Rename(tmp.Name(), MetaPath(tablePath))
}

// LoadTableMeta reads the sidecar next to tablePath. A missing sidecar
// is not an error — it reports ok=false, and the caller treats the
// snapshot as generation 0 (the tabletool-compile case predating the
// sidecar). A present-but-corrupt sidecar is an error: silently cold-
// starting a node that believes it can warm-start would double-apply or
// skip deltas.
func LoadTableMeta(tablePath string) (TableMeta, bool, error) {
	data, err := os.ReadFile(MetaPath(tablePath))
	if errors.Is(err, os.ErrNotExist) {
		return TableMeta{}, false, nil
	}
	if err != nil {
		return TableMeta{}, false, err
	}
	var m TableMeta
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return TableMeta{}, false, fmt.Errorf("table meta %s: %w", MetaPath(tablePath), err)
	}
	// One object, then only whitespace: a second value or stray bytes
	// mean the file is not what SaveTableMeta wrote.
	if _, err := dec.Token(); err != io.EOF {
		return TableMeta{}, false, fmt.Errorf("table meta %s: trailing data after the object", MetaPath(tablePath))
	}
	return m, true, nil
}
