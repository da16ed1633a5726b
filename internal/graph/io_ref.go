// Sequential reference edge-list reader, retained from the first
// loader as the differential-test oracle for the chunked
// parallel parser in loader.go: line-by-line bufio.Scanner tokenizing
// with strings.Fields and strconv, interning ids through a private Go
// map so the oracle shares no id-table code with the loader it checks.
// The parallel reader must match it bit for bit — same vertex order
// (first appearance in the token stream), same edge order, same flags,
// and the same error for the same first bad line.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// readEdgeListRef parses the edge-list format with the original
// single-goroutine scanner loop.
func readEdgeListRef(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	directed := true
	weighted := false
	headerSeen := false
	sawData := false
	index := make(map[VertexID]int32)
	var ids []VertexID
	var srcs, dsts []int32
	var ws []float64
	intern := func(id int64) int32 {
		v, ok := index[VertexID(id)]
		if !ok {
			v = int32(len(ids))
			index[VertexID(id)] = v
			ids = append(ids, VertexID(id))
		}
		return v
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			if !sawData && !headerSeen && strings.Contains(text, "directed=") {
				headerSeen = true
				directed = strings.Contains(text, "directed=true")
				weighted = strings.Contains(text, "weighted=true")
			}
			continue
		}
		sawData = true // the header's flags are frozen from here on
		fields := strings.Fields(text)
		if fields[0] == "v" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: bad vertex line", line)
			}
			id, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			intern(id)
			continue
		}
		if len(fields) < 2 || len(fields) > 3 {
			return nil, fmt.Errorf("graph: line %d: expected 2 or 3 fields, got %d", line, len(fields))
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", line, err)
		}
		wt := 1.0
		if len(fields) == 3 {
			if wt, err = strconv.ParseFloat(fields[2], 64); err != nil {
				return nil, fmt.Errorf("graph: line %d: %v", line, err)
			}
			weighted = true
		}
		srcs = append(srcs, intern(src))
		dsts = append(dsts, intern(dst))
		ws = append(ws, wt)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !weighted {
		ws = nil
	}
	// IndexOf on the oracle's graph answers from the map's contents,
	// filed under the overflow arm alone.
	table := idTable{over: newFlatIntern(len(ids))}
	for id, v := range index {
		table.over.getOrPut(id, v)
	}
	return buildGraph(directed, ids, table, srcs, dsts, ws)
}
