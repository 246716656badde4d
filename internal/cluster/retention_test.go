package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"unsafe"

	"github.com/eyeorg/eyeorg/internal/platform"
)

// within reports whether s's bytes lie inside line's.
func within(s, line string) bool {
	p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
	lo := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	return len(s) > 0 && p >= lo && p < lo+uintptr(len(line))
}

// TestRouterPinsNoRequestLine: the router's tables name a campaign by a
// string of their own, not by a substring of the request path that
// taught it — neither the video table an upload fills nor the override
// a fence rehop pins. Either would keep one request line alive per
// entry for the router's lifetime.
func TestRouterPinsNoRequestLine(t *testing.T) {
	c := newTestCluster(t, Config{})
	rc := &cc{t: t, h: c.Handler()}
	id, owner := createCampaign(t, c, rc)
	rt := c.router

	upload := httptest.NewRequest("POST", "/api/v1/campaigns/"+id+"/videos", bytes.NewReader(sampleVideoBytes()))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, upload)
	var added platform.AddVideoResponse
	if rec.Code != http.StatusCreated || json.Unmarshal(rec.Body.Bytes(), &added) != nil {
		t.Fatalf("add video: %d", rec.Code)
	}
	rt.mu.RLock()
	ref, ok := rt.videos[added.ID]
	rt.mu.RUnlock()
	if !ok || ref.campaign != id {
		t.Fatalf("router learned video %s as %+v, want campaign %s", added.ID, ref, id)
	}
	if within(ref.campaign, upload.URL.Path) {
		t.Error("video table names its campaign by a substring of the upload's request path")
	}

	// Move the campaign and forget the override, as a router that did not
	// see the move would: the next request bounces off the old owner's
	// fence and the rehop pins the new owner.
	target := "a"
	if owner == "a" {
		target = "b"
	}
	if err := c.MoveCampaign(id, owner, target); err != nil {
		t.Fatal(err)
	}
	rt.mu.Lock()
	delete(rt.campaigns, id)
	rt.mu.Unlock()
	get := httptest.NewRequest("GET", "/api/v1/campaigns/"+id+"/analytics", nil)
	rec = httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, get)
	if rec.Code != http.StatusOK {
		t.Fatalf("analytics after the move: %d", rec.Code)
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	if rt.rehops.Value() != 1 {
		t.Fatalf("rehops = %d, want 1", rt.rehops.Value())
	}
	for campaign, node := range rt.campaigns {
		if campaign != id {
			continue
		}
		if node != target {
			t.Fatalf("override pins %s to %s, want %s", id, node, target)
		}
		if within(campaign, get.URL.Path) {
			t.Error("override table keys the campaign by a substring of the rehopped request's path")
		}
		return
	}
	t.Fatalf("rehop pinned no override for %s", id)
}
