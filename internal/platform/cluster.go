// Cluster support: moving a campaign between nodes, and the ownership
// accessors the cluster middleware reads.
//
// A campaign moves in two journaled records. Handoff holds the world
// lock exclusively while it exports the campaign (its sessions, videos
// and blob payloads as the same DTOs snapshots use) and journals an
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

// campaignExport is the handoff document: one campaign's full state in
// snapshot DTOs — the campaign with its completed sessions' arena, the
// in-flight sessions, the videos — plus the blob payloads its videos
// reference (the receiving node's blob store has never seen them).
type campaignExport struct {
	Version  int               `json:"version"`
	Campaign *snapCampaign     `json:"campaign"`
	Sessions []*snapSession    `json:"sessions,omitempty"`
	Videos   []*snapVideo      `json:"videos,omitempty"`
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

// exportCampaign serializes one campaign — sessions, videos, blob bytes
// — as a handoff document. Only Handoff calls it, with the world lock
// held exclusively, so no campaign is exported without being fenced.
func (s *Server) exportCampaign(id string) ([]byte, error) {
	c, ok := s.campaigns.Get(id)
	if !ok {
		return nil, errNoCampaign
	}
	ex := campaignExport{Version: stateVersion, Campaign: exportCampaignState(c)}
	for _, sid := range c.inflight {
		e, _ := s.sessions.Get(sid) // in flight: indexed at join, with its state
		ex.Sessions = append(ex.Sessions, exportSessionState(e.live))
	}
	for _, vid := range c.Videos {
		v, ok := s.videos.Get(vid)
		if !ok {
			return nil, fmt.Errorf("campaign %s references unknown video %s", id, vid)
		}
		ex.Videos = append(ex.Videos, exportVideoState(v))
		if ex.Blobs == nil {
			ex.Blobs = map[string][]byte{}
		}
		if _, dup := ex.Blobs[v.Hash]; !dup {
			data, err := s.blobs.ReadAll(v.Hash)
			if err != nil {
				return nil, fmt.Errorf("exporting blob %s: %w", v.Hash, err)
			}
			ex.Blobs[v.Hash] = data
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
	if c.movedTo != "" {
		return 0, fmt.Errorf("%w: campaign %s now owned by %s", errCampaignMoved, c.ID, c.movedTo)
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	c.movedTo = ev.Target
	s.moved.Store(ev.ID, ev.Target)
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

func (s *Server) applyImport(ev *event) (uint64, error) {
	var ex campaignExport
	if err := json.Unmarshal(ev.State, &ex); err != nil {
		return 0, fmt.Errorf("import state: %w", err)
	}
	if err := checkStateVersion("import state", ex.Version); err != nil {
		return 0, err
	}
	if ex.Campaign == nil {
		return 0, fmt.Errorf("import state: missing campaign")
	}
	if len(ev.LegacyTail) > 0 {
		return 0, fmt.Errorf("%s record for campaign %s carries a handoff tail (%d records) from an earlier build; this server replays no tail and refuses the record rather than drop its mutations",
			opImport, ex.Campaign.ID, len(ev.LegacyTail))
	}
	if _, exists := s.campaigns.Get(ex.Campaign.ID); exists {
		return 0, errCampaignExists
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	// From here on the record is journaled: a failure returns seq with
	// its error so that mutate still awaits the record. No other apply
	// function can fail once it has journaled.

	// Blob payloads first: video DTOs reference them by content address.
	for hash, data := range ex.Blobs {
		if s.blobs.Has(hash) {
			continue
		}
		if _, _, err := s.blobs.PutBytes(data); err != nil {
			return seq, fmt.Errorf("import blob %s: %w", hash, err)
		}
	}
	// Same rebuild order as loadState: sessions, then videos, then the
	// campaign whose adaptive/analytics state re-folds over them.
	for _, sn := range ex.Sessions {
		sess, err := restoreSession(sn)
		if err != nil {
			return seq, fmt.Errorf("import session %s: %w", sn.ID, err)
		}
		s.sessions.Put(sn.ID, sessionEntry{live: sess})
	}
	for _, vn := range ex.Videos {
		v, err := s.restoreVideo(vn)
		if err != nil {
			return seq, fmt.Errorf("import video %s: %w", vn.ID, err)
		}
		s.videos.Put(vn.ID, v)
		s.bumpID(vn.ID)
	}
	c, err := s.restoreCampaign(ex.Campaign, ex.Sessions)
	if err != nil {
		return seq, fmt.Errorf("import campaign %s: %w", ex.Campaign.ID, err)
	}
	s.campaigns.Put(ex.Campaign.ID, c)
	s.bumpID(ex.Campaign.ID)
	s.joined.Add(int64(len(c.recordSessions) + len(c.inflight)))
	for _, sid := range c.recordSessions {
		s.bumpID(sid)
	}
	for _, sid := range c.inflight {
		s.bumpID(sid)
	}
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
		return e.live.Campaign, true
	}
	return e.done.ID, true
}

// CampaignOfVideo resolves a video ID to its campaign.
func (s *Server) CampaignOfVideo(videoID string) (string, bool) {
	v, ok := s.videos.Get(videoID)
	if !ok {
		return "", false
	}
	return v.Campaign, true
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
// while locally owned).
func (s *Server) MovedTo(campaign string) (string, bool) {
	t, ok := s.moved.Load(campaign)
	if !ok {
		return "", false
	}
	return t.(string), true
}
