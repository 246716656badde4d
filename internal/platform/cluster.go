// Cluster support: campaign export/import (handoff between nodes) and
// handoff fencing.
//
// A campaign moves between nodes as snapshot-ship + journal-tail
// catch-up: the old owner exports the campaign (its sessions, videos
// and blob payloads as the same DTOs snapshots use) at a journal cut,
// keeps serving while the transfer is in flight, then fences the
// campaign with a journaled opHandoff — from that record on, every
// mutation gets errCampaignMoved, so nothing can double-apply on the
// old owner. The new owner installs the export plus the fenced tail in
// ONE journaled opImport record, so its own recovery replays the whole
// migration or none of it. Both records replay through the same apply
// functions as everything else, preserving the byte-identical-/results
// contract across migration and restart.
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

// ExportCampaign serializes one campaign — sessions, videos, blob
// bytes — as a handoff document, and returns the journal sequence the
// cut was taken at: records after that sequence form the catch-up tail
// the importer replays on top. Mutations are quiesced for the duration
// (the world lock is held exclusively); the campaign keeps serving
// afterwards until Handoff fences it.
func (s *Server) ExportCampaign(id string) (state []byte, seq uint64, err error) {
	s.world.Lock()
	defer s.world.Unlock()
	c, ok := s.campaigns.Get(id)
	if !ok {
		return nil, 0, errNoCampaign
	}
	ex := campaignExport{Version: stateVersion, Campaign: exportCampaignState(c)}
	for _, sid := range c.inflight {
		e, _ := s.sessions.Get(sid) // in flight: indexed at join, with its state
		ex.Sessions = append(ex.Sessions, exportSessionState(e.live))
	}
	for _, vid := range c.Videos {
		v, ok := s.videos.Get(vid)
		if !ok {
			return nil, 0, fmt.Errorf("campaign %s references unknown video %s", id, vid)
		}
		ex.Videos = append(ex.Videos, exportVideoState(v))
		if ex.Blobs == nil {
			ex.Blobs = map[string][]byte{}
		}
		if _, dup := ex.Blobs[v.Hash]; !dup {
			data, err := s.blobs.ReadAll(v.Hash)
			if err != nil {
				return nil, 0, fmt.Errorf("exporting blob %s: %w", v.Hash, err)
			}
			ex.Blobs[v.Hash] = data
		}
	}
	if s.log != nil {
		seq = s.log.Seq()
	}
	state, err = json.Marshal(&ex)
	return state, seq, err
}

// Handoff fences a campaign: a journaled opHandoff record marks it
// owned by target, and from that record on every mutation touching the
// campaign fails with errCampaignMoved (HTTP 409; the cluster
// middleware answers 307 to the new owner before requests get this
// far). The fence survives restart — it replays like any mutation.
func (s *Server) Handoff(campaign, target string) error {
	ev := &event{Op: opHandoff, ID: campaign, Target: target}
	return s.mutate(nil, func() (uint64, error) { return s.applyHandoff(ev) })
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

// ImportCampaign installs a campaign exported from another node: the
// export document plus the journal-tail records the old owner appended
// between the export cut and the fence. Everything lands as ONE
// journaled opImport record, so recovery replays the whole migration
// atomically. Importing an already-present campaign fails with
// errCampaignExists — the retry/double-apply guard.
func (s *Server) ImportCampaign(state []byte, tail [][]byte) error {
	ev := &event{Op: opImport, State: state, Tail: tail}
	s.world.Lock()
	seq, err := s.applyImport(ev)
	s.world.Unlock()
	if err != nil {
		return err
	}
	if seq != 0 {
		if err := s.log.WaitDurable(seq); err != nil {
			return err
		}
	}
	s.maybeSnapshot()
	return nil
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
	if _, exists := s.campaigns.Get(ex.Campaign.ID); exists {
		return 0, errCampaignExists
	}
	seq, err := s.journal(ev)
	if err != nil {
		return 0, err
	}
	// Blob payloads first: video DTOs reference them by content address.
	for hash, data := range ex.Blobs {
		if s.blobs.Has(hash) {
			continue
		}
		if _, _, err := s.blobs.PutBytes(data); err != nil {
			return 0, fmt.Errorf("import blob %s: %w", hash, err)
		}
	}
	// Same rebuild order as loadState: sessions, then videos, then the
	// campaign whose adaptive/analytics state re-folds over them.
	for _, sn := range ex.Sessions {
		sess, err := restoreSession(sn)
		if err != nil {
			return 0, fmt.Errorf("import session %s: %w", sn.ID, err)
		}
		s.sessions.Put(sn.ID, sessionEntry{live: sess})
	}
	for _, vn := range ex.Videos {
		v, err := s.restoreVideo(vn)
		if err != nil {
			return 0, fmt.Errorf("import video %s: %w", vn.ID, err)
		}
		s.videos.Put(vn.ID, v)
		s.bumpID(vn.ID)
	}
	c, err := s.restoreCampaign(ex.Campaign, ex.Sessions)
	if err != nil {
		return 0, fmt.Errorf("import campaign %s: %w", ex.Campaign.ID, err)
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
	// Catch-up tail: events the old owner journaled after the export
	// cut, replayed through the normal apply functions with journaling
	// suppressed — they are already durable inside this import record.
	for _, rec := range ev.Tail {
		var tev event
		if err := json.Unmarshal(rec, &tev); err != nil {
			return 0, fmt.Errorf("import tail: %w", err)
		}
		if tev.Op == opHandoff {
			continue // the fence itself never applies on the new owner
		}
		tev.noJournal = true
		if err := s.applyEvent(&tev); err != nil {
			return 0, fmt.Errorf("import tail %s %s: %w", tev.Op, tev.ID, err)
		}
	}
	s.countMutation(opImport)
	return seq, nil
}

// CampaignOfRecord attributes one journal record payload to the
// campaign it mutates, resolving session- and video-scoped ops through
// the live indexes. The handoff protocol uses it to filter a node's
// captured records down to one campaign's catch-up tail.
func (s *Server) CampaignOfRecord(payload []byte) (string, bool) {
	var ev event
	if err := json.Unmarshal(payload, &ev); err != nil {
		return "", false
	}
	switch ev.Op {
	case opCampaign, opHandoff:
		return ev.ID, true
	case opVideo, opSession:
		return ev.Campaign, true
	case opEvents, opBatch, opResponse:
		return s.CampaignOf(ev.ID)
	case opFlag:
		return s.CampaignOfVideo(ev.ID)
	}
	return "", false
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

// Barrier waits until everything journaled before the call is durable —
// and therefore, per the store.Window contract, reported to Replicate.
// The handoff protocol runs it after the fence so the catch-up tail is
// complete.
func (s *Server) Barrier() error {
	if s.log == nil {
		return nil
	}
	s.world.Lock()
	seq := s.log.Seq()
	s.world.Unlock()
	return s.log.WaitDurable(seq)
}
