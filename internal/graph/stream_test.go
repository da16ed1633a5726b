package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// smallWindow shrinks the stream window so modest inputs cross many
// window boundaries, restoring it on cleanup.
func smallWindow(t *testing.T, w int) {
	t.Helper()
	old := streamWindow
	streamWindow = w
	t.Cleanup(func() { streamWindow = old })
}

// streamBoth parses data through the windowed streaming reader and the
// in-memory slurp path.
func streamBoth(data []byte) (*Graph, error, *Graph, error) {
	got, gotErr := readEdgeListStream(bytes.NewReader(data))
	want, wantErr := ParseEdgeList(data)
	return got, gotErr, want, wantErr
}

// TestStreamMatchesSlurp pins the streaming reader bit for bit against
// the in-memory parse on inputs spanning many windows, across window
// sizes that land boundaries mid-line and forced shard counts.
func TestStreamMatchesSlurp(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomBuilder(rng, true, true, 800, 12000).buildRef()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes() // ~100 KiB
	for _, win := range []int{1 << 10, 4096 + 13, 1 << 16} {
		for _, procs := range []int{1, 3} {
			smallWindow(t, win)
			forceShards(t, procs)
			got, gotErr, want, wantErr := streamBoth(data)
			if gotErr != nil || wantErr != nil {
				t.Fatalf("win=%d procs=%d: stream err %v, slurp err %v", win, procs, gotErr, wantErr)
			}
			equalGraphs(t, tagOf("stream", procs, int64(win)), got, want)
		}
	}
}

// TestStreamDenseOverflowSeam runs the seam corpora of io_test.go
// through shrunken windows against the sequential reference: the bytes
// fed so far set the dense range, so each window size moves the seam and
// an id an early window interned comes back raw in a later one, hubs are
// first seen by many chunks of many windows at once, and "v" lines land
// in later windows than the edges naming the same id.
func TestStreamDenseOverflowSeam(t *testing.T) {
	inputs := append([]string(nil), seamCases...)
	for hi, header := range seamHeaders {
		inputs = append(inputs, string(seamInput(rand.New(rand.NewSource(int64(hi)+57)), header, 1500)))
	}
	for _, win := range []int{64, 97, 1 << 10, 4096 + 13} {
		for _, procs := range shardCounts {
			smallWindow(t, win)
			forceShards(t, procs)
			for i, in := range inputs {
				got, gotErr := readEdgeListStream(strings.NewReader(in))
				want, wantErr := readEdgeListRef(strings.NewReader(in))
				checkSameOutcome(t, tagOf(fmt.Sprintf("stream-seam/win=%d", win), procs, int64(i)), got, gotErr, want, wantErr)
			}
		}
	}
}

// TestStreamCarryOverLines drives lines comparable to the window size,
// so nearly every line spans a window boundary and the carry/grow path
// does real work (numbers long enough come from wide weights).
func TestStreamCarryOverLines(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# directed=true weighted=true\n")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		// Long tokens: huge ids with maximal-precision weights, plus
		// padding runs of tabs so single lines exceed tiny windows.
		sb.WriteString(strings.Repeat("\t", rng.Intn(40)))
		sb.WriteString("90071992547409")
		sb.WriteString(itoa(i))
		sb.WriteString(" ")
		sb.WriteString(itoa(rng.Intn(50)))
		sb.WriteString(" 0.")
		for j := 0; j < 60; j++ {
			sb.WriteByte(byte('1' + rng.Intn(9)))
		}
		sb.WriteString("\n")
	}
	data := []byte(sb.String())
	for _, win := range []int{64, 97, 256} {
		smallWindow(t, win)
		got, gotErr, want, wantErr := streamBoth(data)
		if gotErr != nil || wantErr != nil {
			t.Fatalf("win=%d: stream err %v, slurp err %v", win, gotErr, wantErr)
		}
		equalGraphs(t, tagOf("stream-carry", 0, int64(win)), got, want)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }

// TestStreamErrorParity places the first bad line deep in a late
// window: the streaming reader must report the same error text and
// global line number as the slurp path (and the sequential reference).
func TestStreamErrorParity(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# directed=false weighted=true\n")
	for i := 0; i < 3000; i++ {
		sb.WriteString(itoa(i))
		sb.WriteString(" ")
		sb.WriteString(itoa(i + 1))
		sb.WriteString(" 1.5\n")
	}
	sb.WriteString("7 8 not-a-number\n") // line 3002
	sb.WriteString("9 10 2.5\n")
	data := []byte(sb.String())
	smallWindow(t, 512)
	got, gotErr, want, wantErr := streamBoth(data)
	if got != nil || want != nil {
		t.Fatal("expected both paths to fail")
	}
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("stream err %q, slurp err %q", gotErr, wantErr)
	}
	ref, refErr := readEdgeListRef(bytes.NewReader(data))
	if ref != nil || refErr == nil || refErr.Error() != gotErr.Error() {
		t.Fatalf("reference err %q, stream err %q", refErr, gotErr)
	}
	if !strings.Contains(gotErr.Error(), "line 3002") {
		t.Fatalf("error lost the global line number: %q", gotErr)
	}
}

// TestStreamHeaderSpansWindows feeds a header far longer than the
// window: flags, hints and line numbering must survive the resumable
// prescan.
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
	smallWindow(t, 256)
	_, gotErr, _, wantErr := streamBoth(data)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("stream err %q, slurp err %q", gotErr, wantErr)
	}
	// Drop the bad tail: the parsed graph must carry the header flags.
	clean := data[:bytes.LastIndexByte(data[:len(data)-1], '\n')+1]
	got, err := readEdgeListStream(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	if got.Directed() || !got.Weighted() || got.NumVertices() != 3 {
		t.Fatalf("flags lost across windows: directed=%v weighted=%v n=%d",
			got.Directed(), got.Weighted(), got.NumVertices())
	}
}

// TestStreamTooLongLine: a line exceeding the reference reader's 1 MiB
// ceiling must fail with bufio.ErrTooLong from the growth path instead
// of looping or slurping.
func TestStreamTooLongLine(t *testing.T) {
	data := append([]byte("0 1\n2 "), bytes.Repeat([]byte("9"), maxLineLen+8)...)
	data = append(data, '\n')
	smallWindow(t, 1024)
	got, gotErr, want, wantErr := streamBoth(data)
	if got != nil || want != nil {
		t.Fatal("expected both paths to fail")
	}
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Fatalf("stream err %v, slurp err %v", gotErr, wantErr)
	}
}

// TestStreamErrorBeforeTooLongTail: a window whose complete lines hold a
// bad line and whose partial tail line is already over the ceiling must
// report the bad line, which comes first in the file, like the reference
// reader and the in-memory parse — not the tail's ErrTooLong.
func TestStreamErrorBeforeTooLongTail(t *testing.T) {
	for _, head := range []string{"1 2 3 4\n", "# directed=true\n1 2\nv\n", "1 2\n"} {
		data := append([]byte(head), bytes.Repeat([]byte("x"), 3*maxLineLen)...)
		smallWindow(t, 2*maxLineLen)
		got, gotErr, want, wantErr := streamBoth(data)
		checkSameOutcome(t, "stream-vs-slurp "+head, got, gotErr, want, wantErr)
		ref, refErr := readEdgeListRef(bytes.NewReader(data))
		checkSameOutcome(t, "stream-vs-ref "+head, got, gotErr, ref, refErr)
	}
}

// TestStreamNoTrailingNewline: the final unterminated line parses at
// EOF exactly as in memory.
func TestStreamNoTrailingNewline(t *testing.T) {
	data := []byte("0 1\n1 2\n2 3")
	smallWindow(t, 8)
	got, gotErr, want, wantErr := streamBoth(data)
	if gotErr != nil || wantErr != nil {
		t.Fatalf("errs: %v / %v", gotErr, wantErr)
	}
	equalGraphs(t, "stream-eof", got, want)
}

// TestStreamFile round-trips through ReadEdgeListFile with a window
// smaller than the file, the production entry point of the streaming
// path.
func TestStreamFile(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := randomBuilder(rng, false, true, 200, 3000).buildRef()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	smallWindow(t, 777)
	got, err := ReadEdgeListFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ParseEdgeList(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	equalGraphs(t, "stream-file", got, want)
}
