package graph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// parseBoth runs the chunked parallel parser and the retained sequential
// reference over the same bytes and returns both results.
func parseBoth(data []byte) (*Graph, error, *Graph, error) {
	got, gotErr := ParseEdgeList(data)
	want, wantErr := readEdgeListRef(bytes.NewReader(data))
	return got, gotErr, want, wantErr
}

// checkSameOutcome asserts the two readers agreed: identical graphs, or
// identical error text.
func checkSameOutcome(t *testing.T, tag string, got *Graph, gotErr error, want *Graph, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: chunked err = %v, reference err = %v", tag, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: chunked err %q, reference err %q", tag, gotErr, wantErr)
		}
		return
	}
	equalGraphs(t, tag, got, want)
}

// TestReadEdgeListMatchesReference is the primary differential pin: the
// chunked parser must reproduce the reference bit for bit on round-trip
// corpora covering directed/undirected, weighted/unweighted, duplicate
// ids, parallel edges, self-loops, and isolated vertices, across forced
// shard counts.
func TestReadEdgeListMatchesReference(t *testing.T) {
	for _, procs := range shardCounts {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed + 400))
			directed := seed%2 == 0
			weighted := seed%4 < 2
			n := 1 + rng.Intn(60)
			m := rng.Intn(300)
			g := randomBuilder(rng, directed, weighted, n, m).buildRef()
			var buf bytes.Buffer
			if err := WriteEdgeList(&buf, g); err != nil {
				t.Fatal(err)
			}
			forceShards(t, procs)
			got, gotErr, want, wantErr := parseBoth(buf.Bytes())
			checkSameOutcome(t, tagOf("read", procs, seed), got, gotErr, want, wantErr)
		}
	}
}

// TestReadEdgeListMatchesReferenceLarge spans many real chunks: ~60k
// lines under a forced 7-way fan-out, so chunk boundaries, the sharded
// dedup, and the S-way merge all carry real load.
func TestReadEdgeListMatchesReferenceLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := randomBuilder(rng, true, true, 3000, 60000).buildRef()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 7} {
		forceShards(t, procs)
		got, gotErr, want, wantErr := parseBoth(buf.Bytes())
		checkSameOutcome(t, tagOf("read-large", procs, 77), got, gotErr, want, wantErr)
	}
}

// TestReadEdgeListMergeHighShards drives the tournament-tree merge
// fan-in at shard counts well past the physical core count — wide
// enough that the loser tree has several levels and padded (exhausted)
// leaves — and at non-power-of-two widths. The id assignment must stay
// the sequential Builder's first-appearance order exactly.
func TestReadEdgeListMergeHighShards(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	g := randomBuilder(rng, true, false, 1200, 20000).buildRef()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{5, 16, 32} {
		forceShards(t, procs)
		got, gotErr, want, wantErr := parseBoth(buf.Bytes())
		checkSameOutcome(t, tagOf("read-highshards", procs, 271), got, gotErr, want, wantErr)
	}
}

// TestReadEdgeListHandcrafted pins the parsing corners one at a time:
// CRLF, missing final newline, interleaved comments and blanks, v-lines,
// mixed 2/3-field rows, the header-with-no-data quirk, tabs, signs, and
// headers appearing after comments.
func TestReadEdgeListHandcrafted(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"newline-only", "\n\n\n"},
		{"comments-only", "# directed=false weighted=true\n# more\n"},
		{"snap", "# some comment\n0 1\n1 2\n2 0\n"},
		{"crlf", "# directed=true weighted=true\r\n1 2 0.5\r\n2 3 1.5\r\n"},
		{"no-final-newline", "0 1\n1 2"},
		{"no-final-newline-weighted", "# directed=true weighted=true\n0 1 2.5"},
		{"blank-and-comments-interleaved", "0 1\n\n# mid comment\n1 2\n   \n2 0\n"},
		{"v-lines", "# directed=false weighted=false\nv 5\n5 6\nv 9\n"},
		{"v-line-only", "v 7\n"},
		{"header-weighted-v-only", "# directed=true weighted=true\nv 3\nv 4\n"},
		{"mixed-2-and-3-field", "0 1\n1 2 7.5\n2 0\n"},
		{"mixed-3-then-2-field", "0 1 7.5\n1 2\n"},
		{"header-weighted-2-field", "# directed=true weighted=true\n0 1\n1 2\n"},
		{"undirected-header", "# directed=false weighted=false\n1 2\n2 3\n"},
		{"undirected-substring-quirk", "# undirected=true\n1 2\n"},
		{"late-header-ignored", "0 1\n# directed=false weighted=true\n1 2\n"},
		{"header-after-comment", "# banner\n# directed=false weighted=true\n1 2 0.25\n"},
		{"tabs-and-spaces", "\t0\t1\t \n  1  2  \n"},
		{"signs", "+1 -2\n-2 +3\n"},
		{"dup-ids-self-loops", "5 5\n5 5\n5 6\n6 5\n5 6\n"},
		{"float-forms", "# directed=true weighted=true\n0 1 1e3\n1 2 .5\n2 3 3.\n3 4 0.123456789012345678\n4 5 1e-300\n"},
		{"big-ids", "922337203685477580 1\n1 9223372036854775807\n"},
		{"indented-comment", "   # directed=false weighted=false\n1 2\n"},
		{"leading-blanks-then-header", "\n\n# directed=false weighted=true\n1 2 4\n"},
		{"long-header", "# directed=false weighted=true n=3 m=2\n" +
			strings.Repeat("# filler comment line with some padding text\n", 300) + "\n\n0 1 2.5\n1 2 0.5\n"},
		{"no-final-newline-three-lines", "0 1\n1 2\n2 3"},
	}
	for _, procs := range shardCounts {
		forceShards(t, procs)
		for _, c := range cases {
			got, gotErr, want, wantErr := parseBoth([]byte(c.in))
			checkSameOutcome(t, c.name, got, gotErr, want, wantErr)
		}
	}
}

// TestReadEdgeListErrorsMatchReference pins error behavior: same first
// error, same text, same global line number — including errors landing
// in later chunks of a forced multi-chunk parse.
func TestReadEdgeListErrorsMatchReference(t *testing.T) {
	prefix := strings.Repeat("1 2\n", 40)
	cases := []string{
		"1 2 3 4\n",
		"x y\n",
		"1 y\n",
		"1 2 z\n",
		"v\n",
		"v x\n",
		"v 1 2\n",
		"1\n",
		"0 1\n1 2\nbogus line here with many fields\n",
		"0 1\n99999999999999999999 2\n", // int64 overflow via strconv fallback
		"0 1\n1 0x12\n",
		prefix + "3 nope\n" + prefix,          // error mid-file
		prefix + prefix + "v too many args\n", // error near the end
		"# directed=true weighted=true\n" + prefix + "1 2 1e\n",
		"# directed=false weighted=true n=3 m=2\n" + strings.Repeat("# filler\n", 300) + "\n0 1 2.5\nbad line with four fields\n",
	}
	for _, procs := range shardCounts {
		forceShards(t, procs)
		for i, in := range cases {
			got, gotErr, want, wantErr := parseBoth([]byte(in))
			checkSameOutcome(t, tagOf("err", procs, int64(i)), got, gotErr, want, wantErr)
			if wantErr == nil {
				t.Fatalf("case %d: expected the reference to error", i)
			}
		}
	}
}

// TestReadEdgeListErrorLineNumber places the first bad line thousands
// of lines and several chunks deep: the error carries the reference's
// text and global line number.
func TestReadEdgeListErrorLineNumber(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("# directed=false weighted=true\n")
	for i := 0; i < 3000; i++ {
		fmt.Fprintf(&sb, "%d %d 1.5\n", i, i+1)
	}
	sb.WriteString("7 8 not-a-number\n") // line 3002
	sb.WriteString("9 10 2.5\n")
	for _, procs := range shardCounts {
		forceShards(t, procs)
		got, gotErr, want, wantErr := parseBoth([]byte(sb.String()))
		checkSameOutcome(t, tagOf("err-line", procs, 0), got, gotErr, want, wantErr)
		if gotErr == nil || !strings.Contains(gotErr.Error(), "line 3002") {
			t.Fatalf("procs=%d: error lost the global line number: %v", procs, gotErr)
		}
	}
}

// TestReadEdgeListTooLong pins the 1 MiB line ceiling the reference
// inherits from its scanner buffer: both readers must fail with
// bufio.ErrTooLong, before and past the boundary.
func TestReadEdgeListTooLong(t *testing.T) {
	forceShards(t, 3)
	okLine := "# " + strings.Repeat("x", maxLineLen-3) // maxLineLen-1 bytes: fits
	in := []byte("0 9\n" + okLine + "\n0 8\n")
	got, gotErr, want, wantErr := parseBoth(in)
	checkSameOutcome(t, "at-boundary-ok", got, gotErr, want, wantErr)
	if wantErr != nil {
		t.Fatalf("line of maxLineLen-1 bytes should parse, got %v", wantErr)
	}

	longLine := "# " + strings.Repeat("x", maxLineLen-2) // maxLineLen bytes: too long
	in = []byte("0 9\n" + longLine + "\n0 8\n")
	got, gotErr, want, wantErr = parseBoth(in)
	checkSameOutcome(t, "past-boundary", got, gotErr, want, wantErr)
	if wantErr != bufio.ErrTooLong {
		t.Fatalf("reference error = %v, want bufio.ErrTooLong", wantErr)
	}

	// A data line past the ceiling, and a bad line before a too-long,
	// unterminated tail: the bad line comes first in the file and wins.
	tooLongData := "0 1\n2 " + strings.Repeat("9", maxLineLen+8) + "\n"
	tail := strings.Repeat("x", 3*maxLineLen)
	for i, in := range []string{tooLongData, "1 2 3 4\n" + tail, "# directed=true\n1 2\nv\n" + tail, "1 2\n" + tail} {
		got, gotErr, want, wantErr = parseBoth([]byte(in))
		checkSameOutcome(t, tagOf("too-long", 3, int64(i)), got, gotErr, want, wantErr)
		if wantErr == nil {
			t.Fatalf("case %d: expected the reference to error", i)
		}
	}
}

// TestWriteEdgeListHeader pins the self-describing header: exact n=/m=
// counts and a prescan that picks up the flags and the n= hint.
func TestWriteEdgeListHeader(t *testing.T) {
	b := NewBuilder(true)
	b.SetWeighted()
	b.AddWeightedEdge(3, 7, 1.25)
	b.AddWeightedEdge(7, 9, 2.5)
	b.AddVertex(42)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if first != "# directed=true weighted=true n=4 m=2" {
		t.Fatalf("header = %q", first)
	}
	h, err := scanHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !h.directed || !h.weighted || h.nHint != 4 {
		t.Fatalf("header scan = %+v", h)
	}
}

// seamInput builds an edge list whose ids straddle every boundary of the
// loader's id resolution: ids inside the dense range a header of n=200
// announces, at its last word (the bitmap rounds 200 up to 256), just
// past it, negative, beyond int32, at the 18-digit edge of the one-pass
// id scan, 19 digits, and the int64 extremes — all interleaved, so the
// global first-appearance order has to merge the direct-indexed and the
// interned arm. Id 7 and id -1 are hubs every chunk sees first-hand, and
// "v" lines name ids before and after their first edge.
func seamInput(rng *rand.Rand, header string, lines int) []byte {
	seam := []int64{199, 200, 255, 256, 257, -1, -2, 1 << 31, 5_000_000_000,
		999999999999999999, -999999999999999999, 1000000000000000000,
		math.MaxInt64, math.MinInt64}
	pick := func() int64 {
		switch rng.Intn(10) {
		case 0, 1, 2:
			return seam[rng.Intn(len(seam))]
		case 3:
			return 7
		case 4:
			return -1
		default:
			return int64(rng.Intn(200))
		}
	}
	var sb strings.Builder
	sb.WriteString(header)
	for i := 0; i < lines; i++ {
		switch rng.Intn(12) {
		case 0:
			fmt.Fprintf(&sb, "v %d\n", pick())
		case 1:
			fmt.Fprintf(&sb, "%d %d %g\n", pick(), pick(), rng.Float64()*100)
		default:
			fmt.Fprintf(&sb, "%d %d\n", pick(), pick())
		}
	}
	return []byte(sb.String())
}

// seamHeaders: no header, and an n= smaller than, equal to, and far
// larger than the real id range.
var seamHeaders = []string{
	"",
	"# directed=true weighted=false n=50\n",
	"# directed=false weighted=true n=200 m=4000\n",
	"# directed=true weighted=false n=2000000000\n",
}

// TestReadEdgeListDenseOverflowSeam pins the dense/overflow seam against
// the reference under every forced fan-out.
func TestReadEdgeListDenseOverflowSeam(t *testing.T) {
	for hi, header := range seamHeaders {
		data := seamInput(rand.New(rand.NewSource(int64(hi)+31)), header, 4000)
		for _, procs := range shardCounts {
			forceShards(t, procs)
			got, gotErr, want, wantErr := parseBoth(data)
			checkSameOutcome(t, tagOf("seam", procs, int64(hi)), got, gotErr, want, wantErr)
			if wantErr != nil {
				t.Fatalf("header %d: reference failed: %v", hi, wantErr)
			}
		}
	}
}

// seamCases are single seam shapes, one per input.
var seamCases = func() []string {
	filler := strings.Repeat("1 2\n3 4\n", 40)
	return []string{
		"# n=64\n63 64\n64 63\n-1 63\n", // both sides of the last bitmap bit
		"# n=1\n0 1\n1 0\n",             // a header one vertex short
		"-9223372036854775808 9223372036854775807\n9223372036854775807 0\n",        // int64 extremes
		"1000000000000000000 999999999999999999\n+999999999999999999 -0\n",         // 19 vs 18 digits, signs
		"5 300\n" + filler + "v 300\nv 5\nv 777\n" + filler + "777 5\n",            // v lines after and before the first edge
		"# n=10\nv 3\n" + filler + "3 4000000000\nv 4000000000\n",                  // the same across the seam
		"7 1\n" + strings.Repeat("7 7\n-1 7\n", 60),                                // hubs on both arms in every chunk
		"# n=8\n9 1\n1 9\n8 2\n-3 8\n2 -3\n" + strings.Repeat("9 -3\n8 1\n", 30),   // interleaved first appearances
		"90 1\n500 90\n" + filler + "1 90\nv 500\n" + filler + filler + "500 90\n", // interned by an early window, raw once the range has grown
	}
}()

// TestReadEdgeListSeamHandcrafted runs seamCases under every forced
// fan-out.
func TestReadEdgeListSeamHandcrafted(t *testing.T) {
	for _, procs := range shardCounts {
		forceShards(t, procs)
		for i, in := range seamCases {
			got, gotErr, want, wantErr := parseBoth([]byte(in))
			checkSameOutcome(t, tagOf("seam-case", procs, int64(i)), got, gotErr, want, wantErr)
			if wantErr != nil {
				t.Fatalf("case %d: reference failed: %v", i, wantErr)
			}
		}
	}
}

// TestScanWeightMatchesStrconv pins the one-pass weight scan bit for bit
// against strconv.ParseFloat: handpicked forms on every branch (exact
// quotient, strconv fallback, rejection) and random decimals dense in
// halfway cases and around the 15-digit seam.
func TestScanWeightMatchesStrconv(t *testing.T) {
	toks := []string{"0", "-0", "+0.0", "1", "1.", ".5", "-.5", "+3.25", "007.50", "0.1", "123456789012345",
		"1234567890123456", "12345678901234567", "1234567890123456789", "12345678901234567890",
		"0.1234567890123456789", "9007199254740993", "9007199254740992.5", "4503599627370497.5",
		"0.0000000000000000001", "9999999999999999999", "1844674407370955161.5", "0.3", "2.675",
		"1e3", "1E-3", "1.5e", "0x1p-2", "inf", "-Inf", "nan", "1_0", ".", "+", "-", "1..2", "1.2.3", "--1", "1-", "١"}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200000; i++ {
		switch i % 4 {
		case 0: // what WriteEdgeList emits
			toks = append(toks, strconv.FormatFloat(1+rng.Float64()*99, 'g', -1, 64))
		case 1:
			toks = append(toks, strconv.FormatFloat(rng.Float64()*math.Pow(10, float64(rng.Intn(12)-6)), 'f', -1, 64))
		case 2: // up to 19 digits, either side of the seam, with the point anywhere
			d := strconv.FormatUint(rng.Uint64()%1e19, 10)[rng.Intn(5):]
			k := rng.Intn(len(d) + 1)
			toks = append(toks, d[:k]+"."+d[k:])
		case 3: // exact halves of 53-bit integers: ties
			toks = append(toks, strconv.FormatFloat(float64(rng.Int63n(1<<53))+0.5, 'f', -1, 64))
		}
	}
	for _, tok := range toks {
		want, err := strconv.ParseFloat(tok, 64)
		got, next, ok := scanWeight([]byte(tok+" 9"), 0, len(tok)+2)
		ascii := strings.IndexFunc(tok, func(r rune) bool { return r >= 0x80 }) < 0
		if ok != (err == nil && ascii) { // a non-ASCII byte sends the line to the general tokenizer
			t.Fatalf("%q: scanWeight ok=%v, strconv err=%v", tok, ok, err)
		}
		if ok && (math.Float64bits(got) != math.Float64bits(want) || next != len(tok)) {
			t.Fatalf("%q: scanWeight = %v (next %d), strconv = %v", tok, got, next, want)
		}
	}
}

// TestScanWeightRandomFloats pins the Eisel–Lemire path bit for bit
// against strconv.ParseFloat on 2^20 random float64s, each printed the
// way WriteEdgeList prints a weight ('g', -1: up to 17 digits) and as a
// fixed-point token of 15 to 19 digits, plus the half-way and boundary
// tokens around them.
func TestScanWeightRandomFloats(t *testing.T) {
	var tok []byte
	check := func() {
		want, err := strconv.ParseFloat(string(tok), 64)
		got, next, ok := scanWeight(append(tok, ' '), 0, len(tok)+1)
		if !ok || err != nil || math.Float64bits(got) != math.Float64bits(want) || next != len(tok) {
			t.Fatalf("%q: scanWeight = %v (next %d, ok %v), strconv = %v (%v)", tok, got, next, ok, want, err)
		}
	}
	for _, s := range []string{"9007199254740993", "9007199254740992.5", "4503599627370497.5", "0.30000000000000004",
		"-0.000", "0000000000000000001", "000000000000000000.1", ".0000000000000000001", "9999999999999999999",
		"999999999999999999.9", "1844674407370955161", "0.5", "1.0", "2.50", "-7.000000000000000000", "+1.5"} {
		tok = []byte(s)
		check()
	}
	for _, d := range []string{"9007199254740993", "30000000000000004", "123456789012345678", "9223372036854775807"} {
		for k := 0; k <= len(d); k++ {
			tok = []byte(d[:k] + "." + d[k:])
			check()
		}
	}
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 1<<20; i++ {
		x := rng.Float64() * math.Pow(10, float64(rng.Intn(10)-3))
		tok = strconv.AppendFloat(tok[:0], x, 'g', -1, 64)
		check()
		intDigits := 1
		for p := 10.0; p <= x; p *= 10 {
			intDigits++
		}
		tok = strconv.AppendFloat(tok[:0], x, 'f', 15+rng.Intn(5)-intDigits, 64)
		check()
	}
}

// TestPow10InvTable rederives eiselLemire's powers with math/big: entry
// k is ⌊2^(b+127) / 10^k⌋ with b the bit length of 10^k − 1, the 128-bit
// mantissa of 10^-k rounded down and normalized to [2^127, 2^128) — for
// k > 0 b is the bit length of 10^k, and entry 0 is 2^127.
func TestPow10InvTable(t *testing.T) {
	one := big.NewInt(1)
	for k, got := range pow10Inv {
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)
		q := new(big.Int).Lsh(one, uint(new(big.Int).Sub(p, one).BitLen()+127))
		b := q.Quo(q, p).FillBytes(make([]byte, 16))
		want := [2]uint64{binary.BigEndian.Uint64(b[:8]), binary.BigEndian.Uint64(b[8:])}
		if got != want || want[0]>>63 != 1 {
			t.Errorf("pow10Inv[%d] = %#x, want %#x", k, got, want)
		}
	}
}

// TestReadEdgeListAllocProportional: chunk buffers are sized from each
// chunk's own bytes, never from the header's n=/m=, so the load's total
// allocation stays within a small multiple of what the loaded graph
// holds: ids, the dense id table and the weighted out-side, since a
// directed graph builds its in-side only when asked.
func TestReadEdgeListAllocProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 10_000, 120_000
	b := NewBuilder(true)
	b.SetWeighted()
	b.Reserve(n, m)
	for i := 0; i < n; i++ {
		b.AddVertex(VertexID(i))
	}
	for e := 0; e < m; e++ {
		b.AddWeightedEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), 1+rng.Float64()*99)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, b.Build()); err != nil { // truthful n=/m= header
		t.Fatal(err)
	}
	forceShards(t, 2)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g, err := ParseEdgeList(buf.Bytes())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.InBuilt() {
		t.Fatal("loading a directed graph built its in-side")
	}
	parsed := g.ResidentBytes()
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("load allocated %d bytes for a %d-byte graph (%.1fx)", got, parsed, float64(got)/float64(parsed))
	// The load measures 3.83x: the chunk buffers and the 16-byte-per-edge
	// edge list the scatter reads are transient beside a 12-byte-per-edge
	// graph. 4.15x fails once the load allocates a tenth more.
	if got*20 > 83*uint64(parsed) {
		t.Fatalf("load allocated %d bytes for a %d-byte graph (%.2fx, want <= 4.15x)", got, parsed, float64(got)/float64(parsed))
	}
}

// ioBenchBytes builds the benchmark input once: a 150k-vertex weighted
// power-law edge list, the same shape as the harness datasets.
func ioBenchBytes(tb testing.TB) []byte {
	rng := rand.New(rand.NewSource(42))
	n := 150_000
	deg := 16
	b := NewBuilder(true)
	b.SetWeighted()
	b.Reserve(n, n*deg)
	for i := 0; i < n; i++ {
		b.AddVertex(VertexID(i))
	}
	for e := 0; e < n*deg; e++ {
		f := rng.Float64()
		s := int32(f * f * float64(n))
		d := int32(rng.Intn(n))
		if s == d {
			d = (d + 1) % int32(n)
		}
		b.AddWeightedEdge(VertexID(s), VertexID(d), 1+rng.Float64()*99)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, b.Build()); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReadEdgeList times the in-memory parse on the three id
// shapes the loader tells apart: dense (ids 0..n-1, all direct-indexed),
// sparse (the same graph with every id multiplied by a large odd
// constant, all through the overflow arm) and negative (ids negated,
// likewise); and on the two weight shapes: dense's weights are printed
// in full like every WriteEdgeList weight (16–17 digits), short-weights
// has them with three decimals.
func BenchmarkReadEdgeList(b *testing.B) {
	dense := ioBenchBytes(b)
	rewrite := func(f func(field int, tok []byte) []byte) []byte {
		var out bytes.Buffer
		out.Grow(2 * len(dense))
		for _, line := range bytes.SplitAfter(dense, []byte{'\n'}) {
			fields := bytes.Fields(line)
			if len(fields) == 0 || fields[0][0] == '#' {
				out.Write(line)
				continue
			}
			for k, tok := range fields {
				out.Write(f(k, tok))
				out.WriteByte(' ')
			}
			out.WriteByte('\n')
		}
		return out.Bytes()
	}
	ids := func(f func(id int64) int64) []byte {
		return rewrite(func(_ int, tok []byte) []byte {
			if id, err := strconv.ParseInt(string(tok), 10, 64); err == nil {
				return strconv.AppendInt(nil, f(id), 10)
			}
			return tok // "v" and the weight pass through
		})
	}
	inputs := []struct {
		name string
		data []byte
	}{
		{"dense", dense},
		{"sparse", ids(func(id int64) int64 { return id * 1_000_003_019 })},
		{"negative", ids(func(id int64) int64 { return -id - 1 })},
		{"short-weights", rewrite(func(field int, tok []byte) []byte {
			if w, err := strconv.ParseFloat(string(tok), 64); field == 2 && err == nil {
				return strconv.AppendFloat(nil, w, 'f', 3, 64)
			}
			return tok
		})},
	}
	for _, in := range inputs {
		b.Run(in.name, func(b *testing.B) {
			b.SetBytes(int64(len(in.data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				g, err := ParseEdgeList(in.data)
				if err != nil {
					b.Fatal(err)
				}
				if g.NumVertices() != 150_000 {
					b.Fatal("bad parse")
				}
			}
		})
	}
}

// BenchmarkReadEdgeListRef is the PR 2 baseline: the sequential
// scanner/Fields/Builder reader the chunked loader replaced.
func BenchmarkReadEdgeListRef(b *testing.B) {
	data := ioBenchBytes(b)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := readEdgeListRef(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		if g.NumVertices() != 150_000 {
			b.Fatal("bad parse")
		}
	}
}

func BenchmarkWriteEdgeList(b *testing.B) {
	data := ioBenchBytes(b)
	g, err := ParseEdgeList(data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		buf.Grow(len(data))
		if err := WriteEdgeList(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadEdgeListUnicodeWhitespace pins the tokenizer's unicode
// semantics deterministically (the fuzz corpus is not committed): every
// separator strings.Fields accepts — NBSP, NEL, thin space, ideographic
// space, line/paragraph separators — must tokenize identically in the
// chunked parser, and non-space multi-byte runes must stay token bytes.
func TestReadEdgeListUnicodeWhitespace(t *testing.T) {
	cases := []string{
		"0\u00a01\n",                                 // NBSP separates fields
		"\u00851 2\n",                                // NEL before the first token
		"1\u30002\u30003.5\n",                        // ideographic space, weighted
		"7\u20098 0.5\nv\u00a09\n",                   // thin space + NBSP vertex line
		"\u00a0\u2028\u00a0\n1 2\n",                  // unicode-blank line skipped
		"\u00a0# directed=true weighted=true\n0 1\n", // NBSP-indented header
		"\u20280 1\u2029\n",                          // line/paragraph separators trim
		"1 2\xe2\x80\n",                              // truncated rune: token bytes
		"0 \u00e9 1\n",                               // non-space rune: 3 fields, bad number
		"v\u00a05\n",                                 // vertex line with unicode separator
	}
	for _, procs := range shardCounts {
		for i, in := range cases {
			forceShards(t, procs)
			got, gotErr, want, wantErr := parseBoth([]byte(in))
			checkSameOutcome(t, tagOf("unicode", procs, int64(i)), got, gotErr, want, wantErr)
		}
	}
}

// TestLyingHeaderHints: a tiny input claiming two billion vertices and
// edges in its header must parse instantly — hints size buffers from
// clamped or actual counts, never from the header's raw claim
// (regression: the dedup-shard intern tables were sized straight from
// n=, turning a 46-byte file into a multi-gigabyte allocation).
func TestLyingHeaderHints(t *testing.T) {
	data := []byte("# directed=true weighted=false n=2000000000 m=2000000000\n0 1\n1 2\n")
	for _, procs := range shardCounts {
		forceShards(t, procs)
		done := make(chan struct{})
		go func() {
			defer close(done)
			got, gotErr, want, wantErr := parseBoth(data)
			checkSameOutcome(t, tagOf("lying-header", procs, 0), got, gotErr, want, wantErr)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("procs=%d: lying header hint forced a pathological allocation", procs)
		}
	}
}
