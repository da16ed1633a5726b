//go:build unix

package graph

import (
	"errors"
	"math"
	"os"
	"syscall"
)

// errNotMappable marks inputs the mapper cannot serve (empty files,
// non-regular files, sizes past the address space); ReadEdgeListFile
// reads those whole.
var errNotMappable = errors.New("graph: file not mappable")

// mmapFile maps f read-only and returns the mapping plus an unmap
// function. A private mapping: the loader never writes the input, and
// MAP_PRIVATE keeps concurrent truncation of the file from corrupting
// other readers' view.
func mmapFile(f *os.File) ([]byte, func(), error) {
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := st.Size()
	if !st.Mode().IsRegular() || size == 0 || uint64(size) > uint64(math.MaxInt) {
		return nil, nil, errNotMappable
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, err
	}
	return data, func() { _ = syscall.Munmap(data) }, nil
}
