package graph

import (
	"bytes"
	"math"
	"strconv"
	"testing"
	"unicode/utf8"

	"aap/internal/par"
)

// FuzzReadEdgeList feeds arbitrary byte streams through the chunked
// parallel parser and the sequential reference, asserting identical
// graphs or identical errors under both a single- and a multi-chunk
// split. This includes multi-byte unicode whitespace (NBSP, NEL,
// ideographic space, …) — the tokenizer decodes runes like the
// reference's strings.Fields — and arbitrary binary / invalid-UTF-8
// streams.
func FuzzReadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"\n",
		"# directed=true weighted=true n=3 m=2\n0 1 2.5\n1 2 0.125\n",
		"# directed=false weighted=false\nv 5\n5 6\nv 9\n",
		"0 1\n1 2\n2 0",
		"# c\r\n1 2 3.5\r\n2 3 4.5\r\n",
		"1 2 3 4\n",
		"v\nx y\n",
		"5 5\n5 5\n5 6\n6 5\n",
		"# undirected=true\n+1 -2\n",
		"0 1\n\n# mid\n1 2 1e3\n   \n2 0 .5\n",
		"9223372036854775807 1\n1 99999999999999999999\n",
		"# directed=true weighted=true\nv 3\n",
		"0 1 0x1p-2\n",
		"\t0\t1\t\n1 2\n",
		// Unicode whitespace: NBSP separator, NEL leading, ideographic
		// space, thin space in a weighted line, unicode-blank line,
		// NBSP before a comment mark, a truncated rune at EOL, and a
		// line separator (not a line break in either reader).
		"0\u00a01\n",
		"\u00851 2\n",
		"1\u30002\u30003.5\n",
		"# directed=true weighted=true\n7\u20098 0.5\nv\u00a09\n",
		"\u00a0\u2028\u00a0\n1 2\n",
		"\u00a0# directed=true weighted=true\n0 1\n",
		"1 2\xe2\x80\n",
		"\u20280 1\u2029\n",
		// The dense/overflow seam: headers short of, at and far past the
		// id range, ids at the last bitmap bit and beyond, int64 extremes,
		// 18- and 19-digit ids, weights on every branch of the one-pass
		// scan.
		"# n=2000000000 m=2000000000\n0 1\n1 2\n",
		"# n=1\n0 1 12345678901234567\n1 -1 0.1234567890123456789\n",
		"0 1 12345678901234567890\n1 2 1.\n2 3 .5e1\n",
		"0000000000000000000 00000000000000000\n0000 -999", // names equalGraphs' probe id
	}
	seeds = append(seeds, seamCases...)
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readEdgeListRef(bytes.NewReader(data))
		for _, procs := range []int{1, 3} {
			prev := par.Override
			par.Override = procs
			got, gotErr := ParseEdgeList(data)
			par.Override = prev
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("procs=%d: chunked err = %v, reference err = %v", procs, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("procs=%d: chunked err %q, reference err %q", procs, gotErr, wantErr)
				}
				continue
			}
			equalGraphs(t, tagOf("fuzz", procs, 0), got, want)
		}
	})
}

// FuzzScanWeight pins the one-pass weight scan against strconv on every
// token: it accepts exactly the all-ASCII tokens strconv.ParseFloat
// accepts, with the same bits, and consumes the whole token.
func FuzzScanWeight(f *testing.F) {
	for _, s := range []string{"0", "-0", "-0.000", "1.", ".5", "12345678901234567", "0.1234567890123456789",
		"9007199254740993", "4503599627370497.5", "0.30000000000000004", "0000000000000000001", "000000000.0000000001",
		"9999999999999999999", "12345678901234567890", "1e3", "0x1p-2", "inf", "nan", "1_0", ".", "+", "1..2"} {
		f.Add(s)
	}
	// 16- to 19-digit mantissas, the lengths only the Eisel–Lemire step
	// takes, with the point at every position.
	for _, d := range []string{"9007199254740993", "30000000000000004", "123456789012345678", "9223372036854775807"} {
		for k := 0; k <= len(d); k++ {
			f.Add(d[:k] + "." + d[k:])
		}
	}
	f.Fuzz(func(t *testing.T, tok string) {
		ascii := tok != ""
		for i := 0; i < len(tok); i++ {
			if asciiSpace[tok[i]] {
				return // not one token
			}
			ascii = ascii && tok[i] < utf8.RuneSelf
		}
		if !ascii {
			return // the general tokenizer's, not scanWeight's
		}
		want, err := strconv.ParseFloat(tok, 64)
		got, next, ok := scanWeight([]byte(tok+"\t"), 0, len(tok)+1)
		if ok != (err == nil) {
			t.Fatalf("%q: scanWeight ok=%v, strconv err=%v", tok, ok, err)
		}
		if ok && (math.Float64bits(got) != math.Float64bits(want) || next != len(tok)) {
			t.Fatalf("%q: scanWeight = %v (next %d), strconv = %v", tok, got, next, want)
		}
	})
}
