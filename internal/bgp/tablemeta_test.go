package bgp

import (
	"os"
	"path/filepath"
	"testing"
)

func TestTableMetaRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.nct")
	want := TableMeta{Generation: 42, Seq: 42}
	if err := SaveTableMeta(path, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := LoadTableMeta(path)
	if err != nil || !ok {
		t.Fatalf("LoadTableMeta = %v, %v", ok, err)
	}
	if got != want {
		t.Fatalf("meta = %+v, want %+v", got, want)
	}
}

func TestTableMetaMissingIsNotError(t *testing.T) {
	m, ok, err := LoadTableMeta(filepath.Join(t.TempDir(), "absent.nct"))
	if err != nil {
		t.Fatalf("missing sidecar errored: %v", err)
	}
	if ok || m != (TableMeta{}) {
		t.Fatalf("missing sidecar = %+v, %v, want zero/false", m, ok)
	}
}

func TestTableMetaCorruptIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.nct")
	for _, body := range []string{
		"not json",
		`{"generation": 1, "bogus": true}`,
		`{"generation":5,"seq":5} junk`,
		`{"generation":5,"seq":5}{"generation":6,"seq":6}`,
		`{"generation":5,"seq":5}}`,
	} {
		if err := os.WriteFile(MetaPath(path), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadTableMeta(path); err == nil {
			t.Errorf("corrupt sidecar %q loaded without error", body)
		}
	}
}
