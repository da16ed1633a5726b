package graph

// The file front end on the inputs that stress a line-oriented reader:
// headers many lines long, lines past the 1 MiB ceiling, a bad line
// ahead of a too-long tail, an unterminated last line, and files parsed
// as many chunks. ReadEdgeListFile must agree with ParseEdgeList of the
// same bytes, and where noted with the sequential reference.

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readBytesFile writes data to a fresh file and loads it through
// ReadEdgeListFile.
func readBytesFile(t *testing.T, data []byte) (*Graph, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return ReadEdgeListFile(path)
}

// fileBoth loads data through a file and parses it in memory.
func fileBoth(t *testing.T, data []byte) (*Graph, error, *Graph, error) {
	t.Helper()
	got, gotErr := readBytesFile(t, data)
	want, wantErr := ParseEdgeList(data)
	return got, gotErr, want, wantErr
}

// TestStreamHeaderSpansWindows feeds a header hundreds of lines long: the
// flags, the n= hint and the line numbering must survive the header scan,
// so a bad line after it reports the same line as in memory and the
// reference, and the clean file carries the header's flags.
func TestStreamHeaderSpansWindows(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# directed=false weighted=true n=3 m=2\n")
	for i := 0; i < 300; i++ {
		sb.WriteString("# filler comment line with some padding text\n")
	}
	sb.WriteString("\n\n")
	sb.WriteString("0 1 2.5\n1 2 0.5\n")
	sb.WriteString("bad line with four fields\n") // checks line numbers too
	data := []byte(sb.String())
	for _, procs := range shardCounts {
		forceShards(t, procs)
		got, gotErr, want, wantErr := fileBoth(t, data)
		checkSameOutcome(t, tagOf("header-file", procs, 0), got, gotErr, want, wantErr)
		ref, refErr := readEdgeListRef(bytes.NewReader(data))
		checkSameOutcome(t, tagOf("header-ref", procs, 0), got, gotErr, ref, refErr)
		if gotErr == nil || !strings.Contains(gotErr.Error(), "line 306") {
			t.Fatalf("procs=%d: want an error on line 306, got %v", procs, gotErr)
		}
		// Drop the bad tail: the parsed graph must carry the header flags.
		clean := data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
		g, err := readBytesFile(t, clean)
		if err != nil {
			t.Fatal(err)
		}
		if g.Directed() || !g.Weighted() || g.NumVertices() != 3 {
			t.Fatalf("procs=%d: header flags lost: directed=%v weighted=%v n=%d",
				procs, g.Directed(), g.Weighted(), g.NumVertices())
		}
	}
}

// TestStreamTooLongLine: a data line past the reference reader's 1 MiB
// ceiling fails the file load with bufio.ErrTooLong, as in memory.
func TestStreamTooLongLine(t *testing.T) {
	data := append([]byte("0 1\n2 "), bytes.Repeat([]byte("9"), maxLineLen+8)...)
	data = append(data, '\n')
	got, gotErr, want, wantErr := fileBoth(t, data)
	if got != nil || want != nil {
		t.Fatal("expected both paths to fail")
	}
	if !errors.Is(gotErr, bufio.ErrTooLong) || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("file err %v, memory err %v, want bufio.ErrTooLong", gotErr, wantErr)
	}
}

// TestStreamErrorBeforeTooLongTail: a file whose complete lines hold a
// bad line and whose unterminated tail is over the ceiling reports the
// bad line, which comes first in the file, like the reference reader and
// the in-memory parse — not the tail's ErrTooLong. The last head has no
// bad line, so the tail's ErrTooLong is the answer there.
func TestStreamErrorBeforeTooLongTail(t *testing.T) {
	for _, head := range []string{"1 2 3 4\n", "# directed=true\n1 2\nv\n", "1 2\n"} {
		data := append([]byte(head), bytes.Repeat([]byte("x"), 3*maxLineLen)...)
		got, gotErr, want, wantErr := fileBoth(t, data)
		checkSameOutcome(t, "file-vs-memory "+head, got, gotErr, want, wantErr)
		ref, refErr := readEdgeListRef(bytes.NewReader(data))
		checkSameOutcome(t, "file-vs-ref "+head, got, gotErr, ref, refErr)
		if gotErr == nil {
			t.Fatalf("%q: expected an error", head)
		}
	}
}

// TestStreamNoTrailingNewline: the final unterminated line of a file
// parses exactly as in memory, at every shard count.
func TestStreamNoTrailingNewline(t *testing.T) {
	data := []byte("0 1\n1 2\n2 3")
	for _, procs := range shardCounts {
		forceShards(t, procs)
		got, gotErr, want, wantErr := fileBoth(t, data)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("procs=%d: errs: %v / %v", procs, gotErr, wantErr)
		}
		equalGraphs(t, tagOf("file-eof", procs, 0), got, want)
		if got.NumEdges() != 3 {
			t.Fatalf("procs=%d: the unterminated last line was dropped: %d edges", procs, got.NumEdges())
		}
	}
}

// TestStreamFile round-trips a random graph through WriteEdgeList and
// ReadEdgeListFile with forced shard counts, so the mapping is parsed as
// several chunks whose boundaries land mid-file.
func TestStreamFile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomBuilder(rng, false, true, 200, 3000).buildRef()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, procs := range shardCounts {
		forceShards(t, procs)
		got, gotErr, want, wantErr := fileBoth(t, buf.Bytes())
		if gotErr != nil || wantErr != nil {
			t.Fatalf("procs=%d: file err %v, memory err %v", procs, gotErr, wantErr)
		}
		equalGraphs(t, tagOf("file", procs, 17), got, want)
	}
}
