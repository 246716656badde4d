//go:build !linux

package store

import "os"

// preallocate does nothing off Linux: segments grow with each window.
func preallocate(*os.File, int64) error { return nil }

// datasync is a full fsync off Linux.
func datasync(f *os.File) error { return f.Sync() }
