//go:build !(darwin || dragonfly || freebsd || linux || netbsd || openbsd)

package platform

import "os"

// lockDir takes no lock where the system has no flock (Windows among
// them): there a data directory is unguarded, and a second server can
// open one a live server owns.
func lockDir(string) (*os.File, error) { return nil, nil }
