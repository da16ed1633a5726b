// Windowed streaming front end of the chunked parallel loader: instead
// of slurping the whole file (peak RSS >= file size), the reader pulls
// fixed-size byte windows, parses each window's complete lines through
// the same chunk machinery (loader.parseRegion), carries the trailing
// partial line to the front of the next window, and only the parsed
// chunk outputs (edge arrays, first-appearance lists) stay resident.
// Two window buffers alternate, so the next window fills while the
// current one parses. Id assignment and the CSR build run once over all
// chunks at EOF, so the result is bit-identical to the slurp path for
// any window size — window boundaries only move chunk boundaries, and
// ownership by lowest chunk makes the assignment independent of those.
package graph

import (
	"bufio"
	"bytes"
	"io"
	"sync"
)

// streamWindow is the read window of the streaming loader. Inputs that
// fit one window take the in-memory path unchanged; larger inputs
// stream. A variable so tests can shrink it to force multi-window
// parses on small inputs.
var streamWindow = 8 << 20

// readEdgeListStream reads the edge-list format from r window by
// window. Errors report the same text and global line numbers as the
// in-memory parse: windows are checked in file order before their
// buffer is reused.
func readEdgeListStream(r io.Reader) (*Graph, error) {
	buf, eof, err := fillBuf(r, make([]byte, 0, streamWindow))
	if err != nil {
		return nil, err
	}
	if eof {
		// The whole input fits one window: identical to the slurp path.
		return ParseEdgeList(buf)
	}

	// Size unknown (and already > one window): assume enough work for
	// the full fan-out.
	const work = int64(1) << 40
	l := &loader{h: newHeader()}
	spare := make([]byte, 0, streamWindow)
	for {
		// The complete region: everything up to the last newline; at
		// EOF the final (possibly unterminated) line joins it.
		cut := len(buf)
		if !eof {
			cut = bytes.LastIndexByte(buf, '\n') + 1
		}
		// Carry the partial tail line to the front of the spare buffer
		// and fill the rest of it while this window parses. A window
		// without any newline is one huge line: the spare grows until
		// the reference reader's line ceiling says ErrTooLong — after
		// this window's complete lines, whose errors come first in the
		// file, have had their say.
		carry := len(buf) - cut
		tooLong := carry >= maxLineLen
		var next struct {
			buf []byte
			eof bool
			err error
		}
		var filling sync.WaitGroup
		if !eof && !tooLong {
			if carry >= cap(spare) {
				spare = make([]byte, 0, 2*carry)
			}
			spare = append(spare[:0], buf[cut:]...)
			filling.Add(1)
			go func() {
				defer filling.Done()
				next.buf, next.eof, next.err = fillBuf(r, spare)
			}()
		}
		err := l.feed(buf[:cut], work)
		filling.Wait() // r and spare are ours again, whatever feed said
		if err != nil {
			return nil, err
		}
		if tooLong {
			return nil, bufio.ErrTooLong
		}
		if eof {
			return l.assemble(), nil
		}
		if next.err != nil {
			return nil, next.err
		}
		buf, spare, eof = next.buf, buf, next.eof
	}
}

// fillBuf reads from r until buf reaches capacity or EOF; eof reports
// that the input is exhausted.
func fillBuf(r io.Reader, buf []byte) (_ []byte, eof bool, err error) {
	for len(buf) < cap(buf) {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, true, nil
		}
		if err != nil {
			return buf, false, err
		}
	}
	return buf, false, nil
}
