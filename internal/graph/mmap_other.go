//go:build !unix

package graph

import (
	"errors"
	"os"
)

// mmapFile on platforms without memory mapping always reports failure;
// ReadEdgeListFile then reads the file whole.
func mmapFile(*os.File) ([]byte, func(), error) {
	return nil, nil, errors.New("graph: mmap unsupported on this platform")
}
