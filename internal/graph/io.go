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
// n= header count tells the loader which ids to index directly;
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

// ReadEdgeListFile loads an edge-list file: the format WriteEdgeList
// produces. Lines starting with '#' other than the header are ignored,
// as are blank lines, so ordinary SNAP-style edge lists also load
// (defaulting to directed, unweighted unless a third column is present).
//
// The file is memory-mapped and the mapping handed to ParseEdgeList in
// one pass: no read syscalls, no copy of the input, and the kernel drops
// clean pages under memory pressure instead of the process holding them.
// Only a file the mapper refuses — empty, not a regular file, or on a
// platform without mmap — is read whole instead. The chunked parallel
// loader (loader.go) splits the bytes into newline-aligned chunks parsed
// concurrently, resolves ids in the dense range by direct indexing (all
// others through an open-addressed overflow table), and reproduces the
// exact graph the retained sequential reference reader builds: same
// vertex order, same edge order, same field separators (all of
// unicode.IsSpace, like strings.Fields), same errors.
func ReadEdgeListFile(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data, unmap, err := mmapFile(f)
	if err == nil {
		// Safe to unmap on return: ParseEdgeList copies every parsed field
		// out of its input, so nothing references the mapping afterwards.
		defer unmap()
	} else if data, err = io.ReadAll(f); err != nil {
		return nil, err
	}
	return ParseEdgeList(data)
}

// ReadEdgeListFileMmap is ReadEdgeListFile, which maps the file itself.
//
// Deprecated: call ReadEdgeListFile.
func ReadEdgeListFileMmap(path string) (*Graph, error) { return ReadEdgeListFile(path) }
