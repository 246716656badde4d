//go:build !unix

package blob

import (
	"errors"
	"os"
)

// mapFile cannot map without mmap: every file-tier read is served from
// the blob's file.
var mapFile = func(*os.File, int64) ([]byte, error) {
	return nil, errors.ErrUnsupported
}

func unmapFile([]byte) {}
