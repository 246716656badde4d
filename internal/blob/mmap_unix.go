//go:build unix

package blob

import (
	"os"
	"syscall"
)

// mapFile maps the first size bytes of f read-only and shared, so the
// slice is the kernel's page cache of the file and no copy of it. The
// descriptor is borrowed through SyscallConn, which holds it open for
// the call, rather than Fd, which would also set it blocking. A
// variable so tests can force the file fallback.
var mapFile = func(f *os.File, size int64) (b []byte, err error) {
	if size == 0 {
		return []byte{}, nil // mmap refuses a zero length; there is nothing to map
	}
	if int64(int(size)) != size {
		return nil, syscall.EFBIG // larger than the address space
	}
	rc, err := f.SyscallConn()
	if err != nil {
		return nil, err
	}
	if cerr := rc.Control(func(fd uintptr) {
		b, err = syscall.Mmap(int(fd), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	}); cerr != nil {
		return nil, cerr
	}
	return b, err
}

// unmapFile releases a mapping no reader has been given.
func unmapFile(b []byte) {
	if len(b) > 0 {
		_ = syscall.Munmap(b) // only a mapping mapFile made, so it cannot fail
	}
}
