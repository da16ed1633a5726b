// Chunked parallel edge-list loader: the ingest front end.
//
// ParseEdgeList turns file bytes into a Graph with every stage
// multicore and, for ids in the dense range, no hash table anywhere:
//
//	bytes ─ fixed-grain chunk split (newline-aligned) ─ per-chunk parse
//	(raw ids + first-appearance bitmap) ─ first-chunk claim (atomic min)
//	─ per-chunk winner count ─ prefix sum ─ parallel id assignment ─
//	remap ─ parallel CSR scatter (ingest.go)
//
// Each chunk parses on its own goroutine with hand-rolled tokenizing
// and number parsing (no strings.Fields, no per-line allocations). An
// endpoint in [0, bound) is stored as the raw id and its first
// appearance in the chunk recorded by a test-and-set on the worker's
// bitmap; any other id (negative, huge, sparse) interns into a
// chunk-local overflow table and is stored as a negative code. The
// internal id of a vertex is its rank in global first-appearance order:
// the lowest chunk that saw an id owns it (an atomic min per dense id,
// a hash-sharded scan in chunk order for the overflow ids), a
// chunk's owned ids keep their chunk-local order, and a prefix sum over
// the chunks' owned counts places them — exactly the order a single
// sequential Builder would produce. The result is bit-identical to the
// retained reference reader (io_ref.go) for any chunk or worker count,
// which the differential and fuzz tests in io_test.go pin.
package graph

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"sync/atomic"
	"unicode/utf8"
	"unsafe"

	"aap/internal/par"
)

const (
	// loaderGrainBytes is the size of one parse chunk, and the input size
	// per parse worker before the loader adds another; below it goroutine
	// fan-out costs more than the parsing saves. Chunks are a fixed grain,
	// not a share of the input, so their buffers and first-appearance
	// lists stay cache-sized whatever the file size, and a chunk
	// dense in long lines or new vertices does not straggle the tail;
	// workers pull chunks from a shared counter.
	loaderGrainBytes = 1 << 20

	// maxLineLen mirrors the reference reader's bufio.Scanner buffer: a
	// line whose terminator is not within 1 MiB fails with
	// bufio.ErrTooLong there, so the chunked parser enforces the same
	// ceiling to stay differentially identical.
	maxLineLen = 1 << 20
)

// asciiSpace marks the single-byte separators: the ASCII subset of
// unicode.IsSpace, all the fast path of a line accepts. A line with any
// other separator (NBSP, NEL, ideographic space, …) goes to slowLine,
// whose bytes.Fields splits exactly like the reference reader's
// strings.Fields — the two readers accept identical inputs byte for byte.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// bstr reinterprets b as a string without copying — strconv fallbacks
// only read the bytes during the call and the loader never mutates the
// input buffer, so the aliasing is safe and the hot path stays
// allocation-free.
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// skipASCIISpace advances i over single-byte separators only.
func skipASCIISpace(region []byte, i, le int) int {
	for i < le && asciiSpace[region[i]] {
		i++
	}
	return i
}

// scanDigits appends the decimal digits in region[i:le] up to the first
// other byte to mant and returns it with the index past them. More than
// 19 digits wrap mant; the caller counts them and does not use it then.
func scanDigits(region []byte, i, le int, mant uint64) (uint64, int) {
	for ; i < le; i++ {
		d := region[i] - '0'
		if d > 9 {
			break
		}
		mant = mant*10 + uint64(d)
	}
	return mant, i
}

// scanID tokenizes and parses an id of the shape [+-]digits{1,18},
// ended by an ASCII separator or the line end, in one pass over its
// bytes. ok=false means "not that shape": the caller re-reads the line
// with the general tokenizer and strconv, so accepted syntax, 19-digit
// magnitudes and error text stay the reference reader's.
func scanID(region []byte, i, le int) (id VertexID, next int, ok bool) {
	neg := false
	if i < le && (region[i] == '-' || region[i] == '+') {
		neg = region[i] == '-'
		i++
	}
	u, end := scanDigits(region, i, le, 0)
	if nd := end - i; nd == 0 || nd > 18 || (end < le && !asciiSpace[region[end]]) {
		return 0, 0, false
	}
	if neg {
		return -VertexID(u), end, true
	}
	return VertexID(u), end, true
}

// pow10 holds the powers of ten a weight's fraction scales by, all exact
// float64s.
var pow10 = [20]float64{1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// scanWeight tokenizes and parses the ASCII weight token at region[i]
// in one pass. The common shape [+-]digits[.digits] with at most 19
// digits, leading zeros included, is an integer m < 10^19 < 2^64 scaled
// by 10^-k, k ≤ 19, and never reaches strconv: below 2^53 the value is
// the exact quotient m/10^k, above it eiselLemire rounds m·10^-k, each
// to the float64 strconv.ParseFloat returns. Every other token
// (exponents, hex, inf/nan, underscores, longer mantissas, the rare
// input eiselLemire cannot decide) goes to strconv; ok=false (a
// non-ASCII byte, or a token strconv rejects) sends the line to the
// general tokenizer, which reports the canonical error.
func scanWeight(region []byte, i, le int) (w float64, next int, ok bool) {
	start := i
	neg := region[i] == '-'
	if neg || region[i] == '+' {
		i++
	}
	mant, end := scanDigits(region, i, le, 0)
	digits, frac := end-i, 0 // frac counts the digits after the point
	if i = end; i < le && region[i] == '.' {
		mant, end = scanDigits(region, i+1, le, mant)
		frac = end - (i + 1)
		digits += frac
		i = end
	}
	plain := digits > 0 && digits <= 19
	for ; i < le && !asciiSpace[region[i]]; i++ {
		if region[i] >= utf8.RuneSelf {
			return 0, 0, false
		}
		plain = false
	}
	if plain {
		if mant < 1<<53 {
			// m and 10^k are exact float64s, so their IEEE quotient is
			// the correctly rounded value: strconv's own first step. It
			// is cheaper than eiselLemire, which cannot decide a short
			// binary fraction such as 2.5 (BenchmarkReadEdgeList's
			// short-weights and dense rows are slower without it).
			if w = float64(mant) / pow10[frac]; neg {
				w = -w
			}
			return w, i, true
		}
		if w, ok = eiselLemire(mant, frac, neg); ok {
			return w, i, true
		}
	}
	w, err := strconv.ParseFloat(bstr(region[start:i]), 64)
	return w, i, err == nil
}

// pow10Inv[k] is the 128-bit mantissa of 10^-k, {high, low} word,
// normalized to [2^127, 2^128) and rounded down: the 20 entries of Go's
// strconv table (detailedPowersOfTen) that a ≤19-digit weight needs.
// TestPow10InvTable rederives them with math/big.
var pow10Inv = [20][2]uint64{
	{0x8000000000000000, 0x0000000000000000},
	{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC},
	{0xA3D70A3D70A3D70A, 0x3D70A3D70A3D70A3},
	{0x83126E978D4FDF3B, 0x645A1CAC083126E9},
	{0xD1B71758E219652B, 0xD3C36113404EA4A8},
	{0xA7C5AC471B478423, 0x0FCF80DC33721D53},
	{0x8637BD05AF6C69B5, 0xA63F9A49C2C1B10F},
	{0xD6BF94D5E57A42BC, 0x3D32907604691B4C},
	{0xABCC77118461CEFC, 0xFDC20D2B36BA7C3D},
	{0x89705F4136B4A597, 0x31680A88F8953030},
	{0xDBE6FECEBDEDD5BE, 0xB573440E5A884D1B},
	{0xAFEBFF0BCB24AAFE, 0xF78F69A51539D748},
	{0x8CBCCC096F5088CB, 0xF93F87B7442E45D3},
	{0xE12E13424BB40E13, 0x2865A5F206B06FB9},
	{0xB424DC35095CD80F, 0x538484C19EF38C94},
	{0x901D7CF73AB0ACD9, 0x0F9D37014BF60A10},
	{0xE69594BEC44DE15B, 0x4C2EBE687989A9B3},
	{0xB877AA3236A4B449, 0x09BEFEB9FAD487C2},
	{0x9392EE8E921D5D07, 0x3AFF322E62439FCF},
	{0xEC1E4A7DB69561A5, 0x2B31E9E3D06C32E5},
}

// eiselLemire returns man·10^-k rounded to the nearest float64, ties to
// even, for man > 0 and k ≤ 19: the Eisel–Lemire step strconv.ParseFloat
// itself takes (Lemire, "Number Parsing at a Gigabyte per Second",
// 2021), on the 20 powers above. ok=false when the 128-bit product
// cannot tell which way to round — an exact half-way input, or a product
// too close to one — and the caller asks strconv. The result is never
// subnormal or infinite: man·10^-k lies in [1e-19, 2^64).
func eiselLemire(man uint64, k int, neg bool) (float64, bool) {
	// Normalize man to bit 63; exp is the biased exponent of the 64-bit
	// top half of the product, ⌊-k·log2(10)⌋ by the fixed-point constant.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	exp := uint64(217706*-k>>16+64+1023) - uint64(clz)
	hi, lo := bits.Mul64(man, pow10Inv[k][0])
	// Truncating the power may have cut off a carry into the 9 bits below
	// the 54 kept: take its low word into account too.
	if hi&0x1FF == 0x1FF && lo+man < man {
		yHi, yLo := bits.Mul64(man, pow10Inv[k][1])
		mHi, mLo := hi, lo+yHi
		if mLo < lo {
			mHi++
		}
		if mHi&0x1FF == 0x1FF && mLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		hi, lo = mHi, mLo
	}
	// Keep 54 bits, the last one for rounding.
	msb := hi >> 63
	mant := hi >> (msb + 9)
	exp -= 1 ^ msb
	if lo == 0 && hi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // looks exactly half-way: strconv breaks the tie
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp++
	}
	f := exp<<52 | mant&(1<<52-1)
	if neg {
		f |= 1 << 63
	}
	return math.Float64frombits(f), true
}

// fastLine parses a line of the all-ASCII shapes "src dst [weight]" and
// "v id" — every data line WriteEdgeList and SNAP-style writers emit —
// without tokenizing it first. fields is 1 (vertex line, the id in src),
// 2 or 3 on success and 0 for any other line (blank, comment, unicode
// separators, malformed), which the caller hands to slowLine untouched.
func fastLine(region []byte, i, le int) (src, dst VertexID, w float64, fields int) {
	var ok bool
	i = skipASCIISpace(region, i, le)
	if i+1 < le && region[i] == 'v' && asciiSpace[region[i+1]] {
		if src, i, ok = scanID(region, skipASCIISpace(region, i+1, le), le); ok && skipASCIISpace(region, i, le) == le {
			return src, 0, 0, 1
		}
		return 0, 0, 0, 0
	}
	if src, i, ok = scanID(region, i, le); !ok {
		return 0, 0, 0, 0
	}
	if dst, i, ok = scanID(region, skipASCIISpace(region, i, le), le); !ok {
		return 0, 0, 0, 0
	}
	if i = skipASCIISpace(region, i, le); i == le {
		return src, dst, 1, 2
	}
	if w, i, ok = scanWeight(region, i, le); !ok || skipASCIISpace(region, i, le) != le {
		return 0, 0, 0, 0
	}
	return src, dst, w, 3
}

// shardOf maps an external id to its overflow dedup shard.
func shardOf(id VertexID, shards int) int {
	h := uint64(id) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(shards))
}

// flatIntern is an open-addressed VertexID→int32 table: the overflow
// arm of idTable and of the loader, for ids outside the dense range.
// The intern workload is hit-heavy (two lookups per edge line, one
// insert per distinct id), where linear probing at ≤0.75 load runs
// several times cheaper than a Go map and rehashing is the only
// allocation. Values are ≥0; vals[i] < 0 marks an empty slot, so any
// int64 id is a valid key.
type flatIntern struct {
	keys []VertexID
	vals []int32
	n    int
	mask uint64
}

func newFlatIntern(hint int) *flatIntern {
	size := 16
	for size < hint*2 {
		size <<= 1
	}
	f := &flatIntern{keys: make([]VertexID, size), vals: make([]int32, size), mask: uint64(size - 1)}
	f.reset()
	return f
}

// reset empties the table, keeping its capacity.
func (f *flatIntern) reset() {
	for i := range f.vals {
		f.vals[i] = -1
	}
	f.n = 0
}

func (f *flatIntern) hash(id VertexID) uint64 {
	// Deliberately a different mix than shardOf: the shard dedup tables
	// hold only keys with hash%shards == s, so reusing shardOf's
	// avalanche would pin the low bits of every home index and lengthen
	// probe chains by the shard count.
	h := uint64(id) * 0xBF58476D1CE4E5B9
	h ^= h >> 31
	return h & f.mask
}

// get returns the value stored for id, or -1.
func (f *flatIntern) get(id VertexID) int32 {
	i := f.hash(id)
	for {
		if f.vals[i] < 0 {
			return -1
		}
		if f.keys[i] == id {
			return f.vals[i]
		}
		i = (i + 1) & f.mask
	}
}

// getOrPut returns (existing value, true) when id is present, otherwise
// inserts val and returns (val, false).
func (f *flatIntern) getOrPut(id VertexID, val int32) (int32, bool) {
	i := f.hash(id)
	for {
		if f.vals[i] < 0 {
			f.keys[i], f.vals[i] = id, val
			f.n++
			if uint64(f.n)*4 > (f.mask+1)*3 {
				f.rehash()
			}
			return val, false
		}
		if f.keys[i] == id {
			return f.vals[i], true
		}
		i = (i + 1) & f.mask
	}
}

// rehash doubles the table.
func (f *flatIntern) rehash() {
	g := newFlatIntern(len(f.keys))
	for i, v := range f.vals {
		if v >= 0 {
			g.getOrPut(f.keys[i], v)
		}
	}
	*f = *g
}

// header holds what the sequential prescan of the leading comment/blank
// lines established: the graph flags, the optional n= vertex-count hint,
// and where the data region starts.
type header struct {
	directed, weighted bool
	nHint              int
	off                int // byte offset of the first data line, len(data) without one
	lines              int // lines before the data region
}

// scanHeader consumes leading blank and comment lines from data exactly
// like the reference reader: the first comment containing "directed="
// fixes the flags, later ones are ignored, and flags are frozen once the
// first data line appears. The defaults are the reference's (directed,
// unweighted).
func scanHeader(data []byte) (header, error) {
	h := header{directed: true, off: len(data)}
	seen := false // a "directed=" comment already fixed the flags
	for pos := 0; pos < len(data); {
		ls := pos
		le, next := len(data), len(data)
		if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
			le, next = pos+nl, pos+nl+1
		}
		if le-ls >= maxLineLen {
			return h, bufio.ErrTooLong
		}
		line := bytes.TrimSpace(data[ls:le])
		if len(line) > 0 {
			if line[0] != '#' {
				h.off = ls
				return h, nil
			}
			if !seen && bytes.Contains(line, []byte("directed=")) {
				seen = true
				h.directed = bytes.Contains(line, []byte("directed=true"))
				h.weighted = bytes.Contains(line, []byte("weighted=true"))
			}
			h.scanHint(line)
		}
		h.lines++
		pos = next
	}
	return h, nil
}

// scanHint extracts the n= hint from a header comment. It only bounds
// the dense id range, so a malformed or missing hint costs nothing.
func (h *header) scanHint(line []byte) {
	for _, f := range bytes.Fields(line) {
		if digits, ok := bytes.CutPrefix(f, []byte("n=")); ok {
			// Below MaxInt32 so int(v) cannot wrap negative on 32-bit
			// platforms and sneak past the size clamps.
			if v, _, ok := scanID(digits, 0, len(digits)); ok && v >= 0 && v < 1<<31 {
				h.nHint = int(v)
			}
		}
	}
}

// chunk is everything the parse of one newline-aligned byte range
// produced. Endpoints and first appearances are codes: the id itself
// when it lies in the dense range, else ^i for overIDs[i].
type chunk struct {
	srcs    []int32
	dsts    []int32
	ws      []float64  // nil until a 3-field line appears in this chunk
	firsts  []int32    // distinct codes in chunk-local first-appearance order
	overIDs []VertexID // chunk-local overflow ids, in first-appearance order
	overWon []bool     // parallel to overIDs: no earlier chunk holds the id
	maxID   int32      // largest dense code, -1 when there is none
	base    int        // internal id of the chunk's first owned vertex
	sawData bool
	lines   int
	// fail is what is wrong with the chunk's first bad line, where parse
	// stops — so `lines` is that line's number within the chunk.
	fail error
}

// parser is one parse worker's scratch, reused from chunk to chunk: the
// first-appearance bitmap over the dense id range [0, 64·len(seen)) and
// the intern table of the ids outside it.
type parser struct {
	seen []uint64
	over *flatIntern
}

// intern returns the chunk-local code of id, recording it in c.firsts
// when the chunk has not seen it before.
func (p *parser) intern(c *chunk, id VertexID) int32 {
	if w := uint64(id) >> 6; w < uint64(len(p.seen)) {
		if bit := uint64(1) << (uint64(id) & 63); p.seen[w]&bit == 0 {
			p.seen[w] |= bit
			c.firsts = append(c.firsts, int32(id))
			c.maxID = max(c.maxID, int32(id))
		}
		return int32(id)
	}
	if p.over == nil {
		p.over = newFlatIntern(64)
	}
	v, existed := p.over.getOrPut(id, int32(len(c.overIDs)))
	if !existed {
		c.overIDs = append(c.overIDs, id)
		c.firsts = append(c.firsts, ^v)
	}
	return ^v
}

// release returns the scratch to its empty state after c's parse. The
// bitmap is cleared word by word through the chunk's own first
// appearances, so the cost follows the chunk, not the dense range.
func (p *parser) release(c *chunk) {
	for _, code := range c.firsts {
		if code >= 0 {
			p.seen[code>>6] = 0
		}
	}
	if len(c.overIDs) > 0 {
		p.over.reset()
	}
}

// parse tokenizes the chunk's lines. It stops at the chunk's first
// error; the line count of an errored chunk is only consumed up to the
// failure, which is fine because only chunks before the earliest
// failure contribute to its global line number. Buffers are sized from
// the chunk's own bytes: its newline count bounds its edges, as does a
// quarter of its length (an edge line has at least 4 bytes).
func (p *parser) parse(c *chunk, data []byte) {
	c.maxID = -1
	edges := min(bytes.Count(data, []byte{'\n'}), len(data)/4) + 1
	c.srcs = make([]int32, 0, edges)
	c.dsts = make([]int32, 0, edges)
	c.firsts = make([]int32, 0, edges)

	for pos := 0; pos < len(data); {
		ls, le := pos, len(data)
		if nl := bytes.IndexByte(data[pos:], '\n'); nl >= 0 {
			le = pos + nl
		}
		pos = le + 1
		c.lines++
		if le-ls >= maxLineLen {
			c.fail = bufio.ErrTooLong
			return
		}
		src, dst, w, fields := fastLine(data, ls, le)
		if fields == 0 {
			if src, dst, w, fields = c.slowLine(data[ls:le]); fields < 0 {
				return
			}
		}
		switch fields {
		case 0: // blank line, or a comment; header flags froze at the prescan
			continue
		case 1:
			c.sawData = true
			p.intern(c, src)
			continue
		}
		c.sawData = true
		s, d := p.intern(c, src), p.intern(c, dst)
		if fields == 3 {
			if c.ws == nil {
				// Earlier 2-field edges of this chunk carry weight 1,
				// exactly as Builder.AddEdge records them.
				c.ws = make([]float64, len(c.srcs), cap(c.srcs))
				for i := range c.ws {
					c.ws[i] = 1
				}
			}
			c.ws = append(c.ws, w)
		} else if c.ws != nil {
			c.ws = append(c.ws, 1)
		}
		c.srcs = append(c.srcs, s)
		c.dsts = append(c.dsts, d)
	}
}

// slowLine is the general line parser — bytes.Fields and strconv, the
// reference reader's semantics verbatim — for the lines fastLine turns
// down. fields is 0 for a blank or comment line, 1 for a vertex line
// (the id in src), 2 or 3 for an edge, and -1 after recording c.fail.
func (c *chunk) slowLine(line []byte) (src, dst VertexID, w float64, fields int) {
	f := bytes.Fields(line)
	if len(f) == 0 || f[0][0] == '#' {
		return 0, 0, 0, 0
	}
	var err error // the line's first number error
	id := func(tok []byte) VertexID {
		v, e := strconv.ParseInt(bstr(tok), 10, 64)
		if err == nil {
			err = e
		}
		return VertexID(v)
	}
	switch {
	case string(f[0]) == "v":
		if len(f) != 2 {
			c.fail = errors.New("bad vertex line")
			return 0, 0, 0, -1
		}
		src, fields = id(f[1]), 1
	case len(f) < 2 || len(f) > 3:
		c.fail = fmt.Errorf("expected 2 or 3 fields, got %d", len(f))
		return 0, 0, 0, -1
	default:
		src, dst, w, fields = id(f[0]), id(f[1]), 1, len(f)
		if len(f) == 3 && err == nil {
			w, err = strconv.ParseFloat(bstr(f[2]), 64)
		}
	}
	if err != nil {
		c.fail = err
		return 0, 0, 0, -1
	}
	return src, dst, w, fields
}

// chunkFail returns the first failure of chunks in file order with the
// reference reader's line numbering; line is the count of lines before
// chunks[0]. (Errors are formatted here, before the caller unmaps the
// input, because strconv errors alias it.)
func chunkFail(chunks []chunk, line int) error {
	for k := range chunks {
		line += chunks[k].lines
		if fail := chunks[k].fail; fail == bufio.ErrTooLong {
			return fail
		} else if fail != nil {
			return fmt.Errorf("graph: line %d: %v", line, fail)
		}
	}
	return nil
}

// lineStart returns where the first line starting at or after s begins.
func lineStart(region []byte, s int) int {
	if s <= 0 || s >= len(region) {
		return min(max(s, 0), len(region))
	}
	if nl := bytes.IndexByte(region[s-1:], '\n'); nl >= 0 {
		return s + nl
	}
	return len(region)
}

// forChunks runs fn over every chunk on procs workers, which pull chunk
// indexes from a shared counter so a slow chunk does not straggle.
func forChunks(procs int, chunks []chunk, fn func(w, k int, c *chunk)) {
	var next atomic.Int32
	par.Do(procs, func(w int) {
		for {
			k := int(next.Add(1)) - 1
			if k >= len(chunks) {
				return
			}
			fn(w, k, &chunks[k])
		}
	})
}

// owns reports whether the chunk with claim ticket `ticket` (its index
// plus one) is the first in file order to hold the id behind code.
func (c *chunk) owns(code, ticket int32, owner []atomic.Int32) bool {
	if code >= 0 {
		return owner[code].Load() == ticket
	}
	return c.overWon[^code]
}

// assemble assigns internal ids over the parsed (failure-free) chunks,
// remaps their edges and builds the CSR graph. chunks is in file order,
// which the ownership rule relies on.
func assemble(chunks []chunk, h header, procs int) (*Graph, error) {
	sawData, sawWeight := false, false
	m, nDense, overflow := 0, 0, false
	edgeOff := make([]int, len(chunks)+1)
	for k := range chunks {
		c := &chunks[k]
		sawData = sawData || c.sawData
		sawWeight = sawWeight || c.ws != nil
		overflow = overflow || len(c.overIDs) > 0
		nDense = max(nDense, int(c.maxID)+1)
		m += len(c.srcs)
		edgeOff[k+1] = m
	}
	// The weighted flag freezes when the first data line creates the
	// builder (reference quirk: a weighted header with no data lines
	// yields an unweighted empty graph).
	weighted := (h.weighted && sawData) || sawWeight

	// Ownership, dense ids: an atomic min of the claim tickets of the
	// chunks holding the id; 0 means no chunk does. Every chunk was parsed
	// under the same dense range, so a dense id is raw wherever it occurs.
	// The table spans the ids actually seen, not the header's claim.
	owner := make([]atomic.Int32, nDense)
	forChunks(procs, chunks, func(_, k int, c *chunk) {
		ticket := int32(k) + 1
		for _, code := range c.firsts {
			if code < 0 {
				continue
			}
			for o := &owner[code]; ; {
				if cur := o.Load(); (cur != 0 && cur <= ticket) || o.CompareAndSwap(cur, ticket) {
					break
				}
			}
		}
	})
	// Ownership, overflow ids: shard s scans those with
	// shardOf(id)==s chunk by chunk in file order; the first chunk to show
	// an id owns it.
	nOver := 0
	if overflow {
		for k := range chunks {
			chunks[k].overWon = make([]bool, len(chunks[k].overIDs))
		}
		distinct := make([]int, procs)
		par.Do(procs, func(s int) {
			seen := newFlatIntern(1024)
			for k := range chunks {
				c := &chunks[k]
				for i, id := range c.overIDs {
					if shardOf(id, procs) != s {
						continue
					}
					if _, existed := seen.getOrPut(id, 0); !existed {
						c.overWon[i] = true
					}
				}
			}
			distinct[s] = seen.n
		})
		for _, d := range distinct {
			nOver += d
		}
	}

	// Deterministic assignment: a chunk's owned ids, in its first-
	// appearance order, take consecutive internal ids after those of the
	// chunks before it — the global first-appearance order, the exact
	// internal-id order of a sequential Builder fed the same lines.
	forChunks(procs, chunks, func(_, k int, c *chunk) {
		for _, code := range c.firsts {
			if c.owns(code, int32(k)+1, owner) {
				c.base++
			}
		}
	})
	n := 0
	for k := range chunks {
		n, chunks[k].base = n+chunks[k].base, n
	}
	ids := make([]VertexID, n)
	index := idTable{dense: make([]int32, nDense)}
	for i := range index.dense {
		index.dense[i] = -1
	}
	forChunks(procs, chunks, func(_, k int, c *chunk) {
		v := int32(c.base)
		for _, code := range c.firsts {
			if !c.owns(code, int32(k)+1, owner) {
				continue
			}
			if code >= 0 {
				ids[v], index.dense[code] = VertexID(code), v
			} else {
				ids[v] = c.overIDs[^code]
			}
			v++
		}
	})
	if nOver > 0 {
		index.over = newFlatIntern(nOver)
		for v, id := range ids {
			if uint64(id) >= uint64(nDense) {
				index.over.getOrPut(id, int32(v))
			}
		}
	}

	// Remap the chunks' codes into the global edge arrays (chunk-major
	// order = file order) through the finished table.
	srcs := make([]int32, m)
	dsts := make([]int32, m)
	// ws stays nil for an edgeless weighted graph: the reference's
	// Builder only materializes its weight column on the first edge, and
	// Graph.Weighted reports outW presence.
	var ws []float64
	if weighted && m > 0 {
		ws = make([]float64, m)
	}
	forChunks(procs, chunks, func(_, k int, c *chunk) {
		trans := make([]int32, len(c.overIDs))
		for i, id := range c.overIDs {
			trans[i], _ = index.get(id)
		}
		off, end := edgeOff[k], edgeOff[k+1]
		remap(srcs[off:end], c.srcs, index.dense, trans)
		remap(dsts[off:end], c.dsts, index.dense, trans)
		if ws != nil {
			if c.ws != nil {
				copy(ws[off:end], c.ws)
			} else {
				for i := off; i < end; i++ {
					ws[i] = 1
				}
			}
		}
	})
	return buildGraph(h.directed, ids, index, srcs, dsts, ws)
}

// remap translates a chunk's endpoint codes into internal ids.
func remap(out, codes, dense, trans []int32) {
	for i, code := range codes {
		if code >= 0 {
			out[i] = dense[code]
		} else {
			out[i] = trans[^code]
		}
	}
}

// ParseEdgeList parses an edge list held in memory with the chunked
// parallel loader. See ReadEdgeListFile for the format.
func ParseEdgeList(data []byte) (*Graph, error) {
	h, err := scanHeader(data)
	if err != nil {
		return nil, err
	}
	region := data[h.off:]
	procs := par.Procs(int64(len(data)), loaderGrainBytes)
	// The dense id range [0, bound) is fixed before any chunk parses, so
	// an id is raw in every chunk or in none. At most len/2+1 ids fit in
	// the region, and len/procs ids per worker bitmap keeps the bitmaps
	// together within an eighth of its bytes, so a lying n= cannot force
	// an allocation. bound only picks how a chunk encodes an id; the Graph
	// is the same for any value of it.
	bound := min(math.MaxInt32-63, len(region)/2+1, len(region)/procs)
	if h.nHint > 0 {
		bound = min(bound, h.nHint)
	}
	parsers := make([]parser, procs)
	for w := range parsers {
		parsers[w].seen = make([]uint64, (bound+63)/64)
	}
	// Newline-aligned chunks of loaderGrainBytes, at least one per worker.
	nc := max(procs, (len(region)+loaderGrainBytes-1)/loaderGrainBytes)
	chunks := make([]chunk, nc)
	forChunks(procs, chunks, func(w, k int, c *chunk) {
		lo, hi := lineStart(region, k*len(region)/nc), lineStart(region, (k+1)*len(region)/nc)
		parsers[w].parse(c, region[lo:hi])
		parsers[w].release(c)
	})
	if err := chunkFail(chunks, h.lines); err != nil {
		return nil, err
	}
	return assemble(chunks, h, procs)
}
