// Data files: append-only files beside the journal, for bytes a caller
// no longer keeps in memory once a snapshot covers them. The journal
// knows nothing of what they hold; the caller's snapshot records how far
// each file is valid, and a restart truncates it back to that length.
package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// File is an append-only data file in the journal's directory. Append
// writes at its end and Sync makes what was appended durable through
// the journal's own data sync, so a test that slows or fails a window's
// sync reaches a File's too. ReadAt reads bytes below Size and may run
// concurrently with an Append, which writes only past Size. Append,
// Sync and Truncate are the caller's to serialize.
type File struct {
	f    *os.File
	name string
	// size is where the next Append writes; synced is the length the last
	// successful Sync made durable. Both only grow, but for Truncate.
	size, synced atomic.Int64
	// failed latches a failed Sync: the pages it covered may be lost even
	// if a later sync succeeds, so no later Sync reports them durable.
	failed error
}

// OpenFile opens data file name, a path relative to the journal's
// directory (one subdirectory deep at most, made if missing), creating
// it empty if it does not exist. A file it creates has its directory
// entry synced before it returns.
func (l *Log) OpenFile(name string) (*File, error) {
	if !filepath.IsLocal(name) {
		return nil, fmt.Errorf("store: data file %q is not inside the journal's directory", name)
	}
	path := filepath.Join(l.dir, name)
	dir := filepath.Dir(path)
	if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, err
		}
		if err := syncDir(filepath.Dir(dir)); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	created := err == nil
	if errors.Is(err, os.ErrExist) {
		f, err = os.OpenFile(path, os.O_RDWR, 0o644)
	}
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && created {
		err = syncDir(dir)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	df := &File{f: f, name: name}
	df.size.Store(fi.Size())
	df.synced.Store(fi.Size()) // what an earlier process left is all the disk holds
	return df, nil
}

// Files lists the data files in subdirectory dir of the journal's
// directory, by the names OpenFile takes, sorted; none if dir does not
// exist.
func (l *Log) Files(dir string) ([]string, error) {
	ents, err := os.ReadDir(filepath.Join(l.dir, dir))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(names)
	return names, nil
}

// RemoveFile deletes data file name and syncs its directory.
func (l *Log) RemoveFile(name string) error {
	if !filepath.IsLocal(name) {
		return fmt.Errorf("store: data file %q is not inside the journal's directory", name)
	}
	path := filepath.Join(l.dir, name)
	if err := os.Remove(path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// Name is the file's name as OpenFile took it.
func (f *File) Name() string { return f.name }

// Size is the file's length: where the next Append writes.
func (f *File) Size() int64 { return f.size.Load() }

// Synced is the length the last successful Sync made durable.
func (f *File) Synced() int64 { return f.synced.Load() }

// Append writes p at the end of the file. A failed write leaves Size
// where it was, so the next Append writes over whatever it left.
func (f *File) Append(p []byte) error {
	n, err := f.f.WriteAt(p, f.size.Load())
	if err != nil {
		return fmt.Errorf("store: appending to %s: %w", f.name, err)
	}
	f.size.Add(int64(n))
	return nil
}

// Sync makes every appended byte durable with the journal's data sync.
// After one failure every later Sync fails too.
func (f *File) Sync() error {
	if f.failed != nil {
		return f.failed
	}
	size := f.size.Load()
	if err := syncData(f.f); err != nil {
		f.failed = fmt.Errorf("store: syncing %s: %w; reopen to recover", f.name, err)
		return f.failed
	}
	f.synced.Store(size)
	return nil
}

// ReadAt fills p from offset off, which with len(p) must lie below Size.
func (f *File) ReadAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > f.size.Load() {
		return fmt.Errorf("store: reading %d bytes at %d of %s, which holds %d", len(p), off, f.name, f.size.Load())
	}
	if _, err := f.f.ReadAt(p, off); err != nil {
		return fmt.Errorf("store: reading %s: %w", f.name, err)
	}
	return nil
}

// Truncate cuts the file to its first n bytes, n at most Size, and
// syncs the cut.
func (f *File) Truncate(n int64) error {
	if n > f.size.Load() {
		return fmt.Errorf("store: %s holds %d bytes, cannot truncate it to %d", f.name, f.size.Load(), n)
	}
	if err := f.f.Truncate(n); err != nil {
		return fmt.Errorf("store: truncating %s: %w", f.name, err)
	}
	f.size.Store(n)
	return f.Sync()
}

// Close closes the file.
func (f *File) Close() error { return f.f.Close() }
