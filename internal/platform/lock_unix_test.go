//go:build darwin || dragonfly || freebsd || linux || netbsd || openbsd

package platform

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDataDirOneOwner: a data directory has one owner. A second Open of
// a directory a live server holds fails naming the directory, before it
// reads or cuts anything (flock locks each open of LOCK apart, so this
// holds within one process as between two); the owner keeps acking
// writes, and after it closes, a reopen holds every write it acked. An
// Open that fails after taking the lock gives it up.
func TestDataDirOneOwner(t *testing.T) {
	dir := t.TempDir()
	srv, c := openPersisted(t, dir, Options{Fsync: true})
	var acked []string
	create := func() {
		t.Helper()
		var created CreateCampaignResponse
		if code := c.do("POST", "/api/v1/campaigns", CreateCampaignRequest{Name: "owned", Kind: "timeline"}, &created); code != http.StatusCreated {
			t.Fatalf("create: %d", code)
		}
		acked = append(acked, created.ID)
	}
	for i := 0; i < 5; i++ {
		create()
	}
	second, err := Open(Options{DataDir: dir, Fsync: true})
	if err == nil {
		second.Close()
		t.Fatal("a second Open of a live server's data directory succeeded")
	}
	if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), "in use") {
		t.Fatalf("the second Open: %v, want an error saying %s is in use", err, dir)
	}
	for i := 0; i < 5; i++ {
		create()
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv, c = openPersisted(t, dir, Options{})
	for _, id := range acked {
		if code := c.do("GET", "/api/v1/campaigns/"+id+"/results", nil, nil); code != http.StatusOK {
			t.Errorf("campaign %s, acked before the close: %d after the reopen", id, code)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// blob.Open cannot make its directory where a file is in the way.
	blobs := filepath.Join(dir, "blobs")
	if err := os.RemoveAll(blobs); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blobs, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if srv, err := Open(Options{DataDir: dir}); err == nil {
		srv.Close()
		t.Fatal("Open with a file where the blob directory goes succeeded")
	}
	if err := os.Remove(blobs); err != nil {
		t.Fatal(err)
	}
	srv, err = Open(Options{DataDir: dir})
	if err != nil {
		t.Fatalf("Open after a failed Open: %v", err)
	}
	srv.Close()
}
