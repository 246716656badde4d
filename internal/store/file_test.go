package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFileAppendSyncReadAt: a data file grows by Append, becomes durable
// by Sync through the journal's syncData and nothing else, reads back
// below its size, and reopens at the size it was left at.
func TestFileAppendSyncReadAt(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	synced := map[string]int{}
	defer func() { syncData = testSync }()
	syncData = func(f *os.File) error {
		synced[filepath.Base(f.Name())]++
		return testSync(f)
	}
	f, err := l.OpenFile("campaigns/c1.frozen")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 0 || f.Synced() != 0 || f.Name() != "campaigns/c1.frozen" {
		t.Fatalf("a new file is %q, %d bytes, %d synced", f.Name(), f.Size(), f.Synced())
	}
	for _, p := range []string{"first,", "second,"} {
		if err := f.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if f.Size() != 13 || f.Synced() != 0 || synced["c1.frozen"] != 0 {
		t.Fatalf("after two appends: %d bytes, %d synced, %d syncs", f.Size(), f.Synced(), synced["c1.frozen"])
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if f.Synced() != 13 || synced["c1.frozen"] != 1 {
		t.Fatalf("after Sync: %d synced, %d syncs through syncData", f.Synced(), synced["c1.frozen"])
	}
	got := make([]byte, 7)
	if err := f.ReadAt(got, 6); err != nil || string(got) != "second," {
		t.Fatalf("ReadAt(6) = %q, %v", got, err)
	}
	if err := f.ReadAt(make([]byte, 2), 12); err == nil {
		t.Fatal("ReadAt past the end succeeded")
	}
	if err := f.Truncate(6); err != nil || f.Size() != 6 || f.Synced() != 6 {
		t.Fatalf("Truncate(6): %v, %d bytes, %d synced", err, f.Size(), f.Synced())
	}
	if err := f.Truncate(7); err == nil {
		t.Fatal("Truncate past the end succeeded")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := l.OpenFile("campaigns/c1.frozen")
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if again.Size() != 6 || again.Synced() != 6 {
		t.Fatalf("reopened: %d bytes, %d synced, want 6 and 6", again.Size(), again.Synced())
	}
	if err := again.Append([]byte("third,")); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "campaigns", "c1.frozen")); !bytes.Equal(b, []byte("first,third,")) {
		t.Fatalf("file holds %q", b)
	}
	if _, err := l.OpenFile("../outside"); err == nil {
		t.Fatal("OpenFile opened a file outside the journal's directory")
	}
}

// TestFileSyncFailureLatches: a failed sync may have dropped the pages
// it covered, so the file never reports them durable: every later Sync
// fails too.
func TestFileSyncFailureLatches(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	f, err := l.OpenFile("data")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.Append([]byte("bytes")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected sync failure")
	defer func() { syncData = testSync }()
	syncData = func(*os.File) error { return boom }
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Fatalf("Sync: %v, want the injected failure", err)
	}
	syncData = testSync
	if err := f.Sync(); !errors.Is(err, boom) || f.Synced() != 0 {
		t.Fatalf("Sync after a failure: %v, %d synced; want the first failure and nothing synced", err, f.Synced())
	}
}

// TestFilesListAndRemove: Files lists a subdirectory's data files by the
// names OpenFile takes, and RemoveFile deletes one.
func TestFilesListAndRemove(t *testing.T) {
	l, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if names, err := l.Files("campaigns"); err != nil || len(names) != 0 {
		t.Fatalf("Files of a missing directory: %v, %v", names, err)
	}
	for _, name := range []string{"campaigns/c2.rows", "campaigns/c1.rows"} {
		f, err := l.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	names, err := l.Files("campaigns")
	if err != nil || strings.Join(names, " ") != "campaigns/c1.rows campaigns/c2.rows" {
		t.Fatalf("Files = %v, %v", names, err)
	}
	if err := l.RemoveFile("campaigns/c1.rows"); err != nil {
		t.Fatal(err)
	}
	if names, _ := l.Files("campaigns"); len(names) != 1 || names[0] != "campaigns/c2.rows" {
		t.Fatalf("after RemoveFile, Files = %v", names)
	}
}
