//go:build unix

package graph

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// readFIFO writes data into a fresh named pipe from a goroutine and loads
// the pipe through ReadEdgeListFile.
func readFIFO(t *testing.T, data []byte) (*Graph, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.fifo")
	if err := syscall.Mkfifo(path, 0o600); err != nil {
		t.Skipf("mkfifo: %v", err)
	}
	wrote := make(chan error, 1)
	go func() {
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(data)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		wrote <- err
	}()
	g, err := ReadEdgeListFile(path)
	if werr := <-wrote; werr != nil {
		t.Fatalf("writing the pipe: %v", werr)
	}
	return g, err
}

// TestReadEdgeListFileMmapMatchesStreaming: the same bytes load equal
// from a regular file, which is mapped, and from a pipe, which cannot be
// mapped and is streamed in whole, on random graphs of every kind.
func TestReadEdgeListFileMmapMatchesStreaming(t *testing.T) {
	dir := t.TempDir()
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed + 700))
		directed := seed%2 == 0
		weighted := seed%3 != 0
		g := randomBuilder(rng, directed, weighted, 1+rng.Intn(300), rng.Intn(3000)).buildRef()
		path, data := writeTemp(t, dir, fmt.Sprintf("g%d.txt", seed), g)
		mapped, err := ReadEdgeListFile(path)
		if err != nil {
			t.Fatalf("seed %d: mapped read: %v", seed, err)
		}
		streamed, err := readFIFO(t, data)
		if err != nil {
			t.Fatalf("seed %d: pipe read: %v", seed, err)
		}
		equalGraphs(t, fmt.Sprintf("mmap-vs-pipe/seed=%d", seed), mapped, streamed)
	}
}

// TestReadEdgeListFileFIFO: a non-regular file the mapper refuses is read
// whole and loads equal to ParseEdgeList of its bytes, errors included.
func TestReadEdgeListFileFIFO(t *testing.T) {
	data := []byte("# directed=false weighted=true n=4 m=3\n0 1 2.5\n1 2 0.5\nv 9\n2 3 1\n")
	got, err := readFIFO(t, data)
	if err != nil {
		t.Fatalf("read of a pipe: %v", err)
	}
	want, err := ParseEdgeList(data)
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, "fifo", got, want)

	bad := []byte("0 1\n1 2\nnope nope\n")
	_, fileErr := readFIFO(t, bad)
	_, memErr := ParseEdgeList(bad)
	if fileErr == nil || memErr == nil || fileErr.Error() != memErr.Error() {
		t.Fatalf("error text diverges: pipe %v, memory %v", fileErr, memErr)
	}
}
