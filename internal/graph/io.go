package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
)

// Throughput renders an ingest rate as "X MB/s, YM edges/s" — the load
// report shared by grapecli, simviz, and the examples.
func Throughput(bytes, edges int64, secs float64) string {
	return fmt.Sprintf("%.1f MB/s, %.2fM edges/s",
		float64(bytes)/(1<<20)/secs, float64(edges)/secs/1e6)
}

// WriteEdgeList writes g in a plain text edge-list format:
//
//	# directed=<bool> weighted=<bool> n=<vertices> m=<edges>
//	<src> <dst> [<weight>]
//
// one edge per line using external vertex identifiers. Isolated vertices
// are written as "v <id>" lines so a round trip preserves them. The
// n= header count tells ReadEdgeList which ids to index directly;
// headerless SNAP-style files still load, guessing it from their size.
//
// Lines are formatted with strconv.Append* into one reused buffer —
// no fmt, no per-line allocations.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	buf := make([]byte, 0, 80)
	buf = append(buf, "# directed="...)
	buf = strconv.AppendBool(buf, g.Directed())
	buf = append(buf, " weighted="...)
	buf = strconv.AppendBool(buf, g.Weighted())
	buf = append(buf, " n="...)
	buf = strconv.AppendInt(buf, int64(g.NumVertices()), 10)
	buf = append(buf, " m="...)
	buf = strconv.AppendInt(buf, g.NumEdges(), 10)
	buf = append(buf, '\n')
	if _, err := bw.Write(buf); err != nil {
		return err
	}
	var err error
	// hasIn marks every edge head, so isolated vertices are found without
	// building a directed graph's in-side: n/8 bytes instead of 8n + 4m.
	hasIn := make([]uint64, (g.NumVertices()+63)/64)
	g.Edges(func(src, dst int32, wt float64) {
		hasIn[dst>>6] |= 1 << (dst & 63)
		if err != nil {
			return
		}
		buf = strconv.AppendInt(buf[:0], int64(g.IDOf(src)), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, int64(g.IDOf(dst)), 10)
		if g.Weighted() {
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, wt, 'g', -1, 64)
		}
		buf = append(buf, '\n')
		_, err = bw.Write(buf)
	})
	if err != nil {
		return err
	}
	// Isolated vertices: no incident edges in either direction. On an
	// undirected graph every endpoint has out-edges, so hasIn matters
	// only for the heads of directed edges.
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if g.OutDegree(v) == 0 && hasIn[v>>6]&(1<<(v&63)) == 0 {
			buf = append(buf[:0], 'v', ' ')
			buf = strconv.AppendInt(buf, int64(g.IDOf(v)), 10)
			buf = append(buf, '\n')
			if _, err := bw.Write(buf); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses the format produced by WriteEdgeList. Lines
// starting with '#' other than the header are ignored, as are blank
// lines, so ordinary SNAP-style edge lists also load (defaulting to
// directed, unweighted unless a third column is present).
//
// The input is parsed by the chunked parallel loader (loader.go): the
// byte range splits into newline-aligned chunks parsed concurrently,
// ids in the dense range the n= header announces resolve by direct
// indexing (all others through an open-addressed overflow table), and
// ownership by lowest chunk reproduces the exact graph the retained
// sequential reference reader builds — same vertex order, same edge
// order, same field separators (all of unicode.IsSpace, like
// strings.Fields), same errors.
// Inputs up to one stream window load in memory; larger inputs parse
// window by window with carry-over partial lines (stream.go), so peak
// resident bytes stay near the parsed representation instead of >= the
// input size.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeListStream(r)
}

// ReadEdgeListFile loads an edge-list file through the parallel parser,
// streaming it in fixed-size windows (see ReadEdgeList) so files larger
// than memory do not slurp.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readEdgeListStream(f)
}
