package graph

// Differential pin for the file front end: mapping a file and parsing the
// mapping must reproduce ParseEdgeList of the same bytes bit for bit, and
// report identical errors on malformed input.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// writeTemp round-trips g through WriteEdgeList into a file and returns
// its path and bytes.
func writeTemp(t *testing.T, dir, name string, g *Graph) (string, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

func TestReadEdgeListFileMatchesParse(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed + 900))
		directed := seed%2 == 0
		weighted := seed%3 != 0
		// The last seed spans many chunks.
		n, m := 1+rng.Intn(80), rng.Intn(600)
		if seed == 7 {
			n, m = 3000, 60000
		}
		path, data := writeTemp(t, dir, fmt.Sprintf("g%d.txt", seed), randomBuilder(rng, directed, weighted, n, m).buildRef())
		got, err := ReadEdgeListFile(path)
		if err != nil {
			t.Fatalf("seed %d: file read: %v", seed, err)
		}
		want, err := ParseEdgeList(data)
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		// Not compared against the built graph itself: the file round trip
		// reassigns internal ids to first-appearance order.
		equalGraphs(t, fmt.Sprintf("file/seed=%d", seed), got, want)
	}
}

// TestReadEdgeListFileMmapFallsBack: a file the mapper refuses (empty)
// still loads, read whole, to what ParseEdgeList makes of its bytes.
func TestReadEdgeListFileMmapFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatalf("read of empty file: %v", err)
	}
	want, err := ParseEdgeList(nil)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, "file-empty", got, want)
}

// TestReadEdgeListFileMmapErrors: malformed input fails with the exact
// error text of the in-memory parse.
func TestReadEdgeListFileMmapErrors(t *testing.T) {
	data := []byte("0 1\nnope nope\n2 3\n")
	path := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, fileErr := ReadEdgeListFile(path)
	_, memErr := ParseEdgeList(data)
	if fileErr == nil || memErr == nil {
		t.Fatalf("expected both to fail: file=%v memory=%v", fileErr, memErr)
	}
	if fileErr.Error() != memErr.Error() {
		t.Fatalf("error text diverges: file %q, memory %q", fileErr, memErr)
	}
}

// TestReadEdgeListFileMmapMissing: a missing file reports the open
// error, not a parse of nothing.
func TestReadEdgeListFileMmapMissing(t *testing.T) {
	if _, err := ReadEdgeListFile(filepath.Join(t.TempDir(), "absent")); !os.IsNotExist(err) {
		t.Fatalf("want not-exist error, got %v", err)
	}
}
