//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package platform

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockFile is the file in a data directory whose flock marks its owner.
const lockFile = "LOCK"

// lockDir makes this server the one owner of data directory dir: it
// takes an exclusive, non-blocking flock on dir's LOCK file, creating
// the directory and the file as needed, and holds it as long as the
// returned file is open. A lock another open file of LOCK holds, in
// this process or another, fails at once with an error naming dir.
func lockDir(dir string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, lockFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if errors.Is(err, syscall.EWOULDBLOCK) {
			return nil, fmt.Errorf("platform: data directory %s is in use by another server (its %s is locked)", dir, lockFile)
		}
		return nil, fmt.Errorf("platform: locking data directory %s: %w", dir, err)
	}
	return f, nil
}
