//go:build linux

package store

import (
	"os"
	"syscall"
)

// preallocate extends f to at least size bytes with fallocate(2) mode 0,
// so the window writes that follow land inside the file instead of
// growing it, and the window's data sync has no file size to write.
// A filesystem without fallocate (EOPNOTSUPP, which is ENOTSUP on Linux)
// keeps growing the file per window, which is only slower; every other
// error is returned.
func preallocate(f *os.File, size int64) error {
	for {
		switch err := syscall.Fallocate(int(f.Fd()), 0, 0, size); err {
		case nil, syscall.EOPNOTSUPP:
			return nil
		case syscall.EINTR:
		default:
			return os.NewSyscallError("fallocate", err)
		}
	}
}

// datasync makes f's written bytes durable with fdatasync(2): the data
// and the metadata needed to read it back (the size, when a write grew
// the file), not timestamps. The caller keeps f open across the call.
func datasync(f *os.File) error {
	for {
		switch err := syscall.Fdatasync(int(f.Fd())); err {
		case nil:
			return nil
		case syscall.EINTR:
		default:
			return os.NewSyscallError("fdatasync", err)
		}
	}
}
