// Cluster support: moving a campaign between nodes, and the ownership
// accessors the cluster middleware reads.
//
// A campaign moves in two journaled records. Handoff holds the world
// lock exclusively while it exports the campaign (its section, the one
// snapshots carry, and its blob payloads) and journals an
// opHandoff fence. Every fence check runs inside an apply function
// under the world lock held shared, so each mutation either finished
// before that cut, and is in the export, or sees the fence and gets
// errCampaignMoved: nothing of the campaign is journaled between the
// export and the fence, so there is no tail to ship. The new owner
// installs the export as ONE journaled opImport record, so its own
// recovery replays the whole migration or none of it. Both records
// replay through the same apply functions as everything else,
// preserving the byte-identical-/results contract across migration and
// restart.
package platform

import (
	"encoding/json"
	"fmt"
	"sort"
)

// campaignExport is the handoff document: one campaign's section, the
// same bytes a snapshot carries for it, plus the blob payloads its videos
// reference (the receiving node's blob store has never seen them).
type campaignExport struct {
	Version  int               `json:"version"`
	Campaign *snapCampaign     `json:"campaign"`
	Blobs    map[string][]byte `json:"blobs,omitempty"`
}

// Handoff moves a campaign off this server. Under the world lock held
// exclusively it exports the campaign and journals an opHandoff record
// marking it owned by target, so the document returned is exactly the
// state the fence cut. From that record on every mutation touching the
// campaign fails with errCampaignMoved (HTTP 409; the cluster middleware
// answers 307 to the new owner before requests get this far), and the
// fence survives restart — it replays like any mutation. The export
// comes first so that a failed one fences nothing. Handoff returns once
// the fence is durable; the document is the new owner's ImportCampaign
// argument.
func (s *Server) Handoff(campaign, target string) ([]byte, error) {
	ev := &event{Op: opHandoff, ID: campaign, Target: target}
	var state []byte
	err := s.mutate(&s.world, nil, func() (seq uint64, err error) {
		if state, err = s.exportCampaign(campaign); err != nil {
			return 0, err
		}
		return s.applyHandoff(ev)
	})
	if err != nil {
		return nil, err
	}
	return state, nil
}

// exportCampaign serializes one campaign's section and its videos' blob
// bytes as a handoff document. Only Handoff calls it, with the world
// lock held exclusively, so no campaign is exported without being fenced.
func (s *Server) exportCampaign(id string) ([]byte, error) {
	c, ok := s.campaigns.Get(id)
	if !ok {
		return nil, errNoCampaign
	}
	cn, err := s.section(c)
	if err != nil {
		return nil, err
	}
	ex := campaignExport{Version: stateVersion, Campaign: &cn, Blobs: map[string][]byte{}}
	for _, v := range cn.Videos {
		if _, dup := ex.Blobs[v.Hash]; !dup {
			if ex.Blobs[v.Hash], err = s.blobs.ReadAll(v.Hash); err != nil {
				return nil, fmt.Errorf("exporting blob %s: %w", v.Hash, err)
			}
		}
	}
	return json.Marshal(&ex)
}

func (s *Server) applyHandoff(ev *event) (uint64, error) {
	csh := s.campaigns.Shard(ev.ID)
	csh.Lock()
	defer csh.Unlock()
	c, ok := csh.Get(ev.ID)
	if !ok {
		return 0, errNoCampaign
	}
	if err := c.fenced(); err != nil {
		return 0, err
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	c.movedTo = ev.Target
	s.countMutation(opHandoff)
	return seq, nil
}

// ImportCampaign installs a campaign another node's Handoff exported.
// It lands as ONE journaled opImport record, so recovery replays the
// whole migration atomically. Importing an already-present campaign
// fails with errCampaignExists — the retry/double-apply guard.
func (s *Server) ImportCampaign(state []byte) error {
	ev := &event{Op: opImport, State: state}
	return s.mutate(&s.world, nil, func() (uint64, error) { return s.applyImport(ev) })
}

// applyImport restores the document's section, refuses one naming
// anything this server already holds and puts the blobs, all before it
// journals, so a refused import leaves neither a record nor an index
// entry behind; then it installs the section.
func (s *Server) applyImport(ev *event) (uint64, error) {
	var ex campaignExport
	if err := decodeState("import state", ev.State, &ex); err != nil {
		return 0, err
	}
	if ex.Campaign == nil {
		return 0, fmt.Errorf("import state: missing campaign")
	}
	r, err := s.restore(ex.Campaign, func(hash string) bool {
		_, carried := ex.Blobs[hash]
		return carried || s.blobs.Has(hash)
	})
	if err == nil {
		err = s.held(r)
	}
	if err != nil {
		return 0, fmt.Errorf("%s: %w", opImport, err)
	}
	// The blobs are durable before the record naming them, as a video
	// upload's are; one the record does not end up naming is unreferenced.
	for hash, data := range ex.Blobs {
		if s.blobs.Has(hash) {
			continue
		}
		ref, _, err := s.blobs.PutBytes(data)
		if err != nil {
			return 0, fmt.Errorf("import blob %s: %w", hash, err)
		}
		if ref.Hash != hash {
			return 0, fmt.Errorf("import blob %s: payload hashes to %s", hash, ref.Hash)
		}
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	s.install(r)
	s.joined.Add(int64(len(r.c.recordSessions) + len(r.inflight)))
	s.countMutation(opImport)
	return seq, nil
}

// --- ownership accessors (read paths for the cluster middleware) ---

// CampaignOf resolves a session ID to its campaign.
func (s *Server) CampaignOf(sessionID string) (string, bool) {
	e, ok := s.sessions.Get(sessionID)
	switch {
	case !ok:
		return "", false
	case e.live != nil:
		return e.live.campaign.ID, true
	}
	return e.done.ID, true
}

// CampaignOfVideo resolves a video ID to its campaign.
func (s *Server) CampaignOfVideo(videoID string) (string, bool) {
	v, ok := s.videos.Get(videoID)
	if !ok {
		return "", false
	}
	return v.campaign.ID, true
}

// CampaignIDs lists every campaign on this node, sorted.
func (s *Server) CampaignIDs() []string {
	var ids []string
	s.campaigns.Range(func(id string, _ *campaignState) bool {
		ids = append(ids, id)
		return true
	})
	sort.Strings(ids)
	return ids
}

// MovedTo reports where a handed-off campaign now lives ("" and false
// while locally owned, or not held here). It reads the fence under the
// campaign's shard lock held shared.
func (s *Server) MovedTo(campaign string) (string, bool) {
	csh := s.campaigns.Shard(campaign)
	csh.RLock()
	defer csh.RUnlock()
	c, ok := csh.Get(campaign)
	if !ok || c.fenced() == nil {
		return "", false
	}
	return c.movedTo, true
}
