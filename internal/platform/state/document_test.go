package state

// The state's on-disk formats as only this package knows them — the
// snapshot document, the journal record and the campaigns' file names:
// the layout tests, the version refusals and the refusals of documents,
// files and records that arrive from outside the process.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/store"
)

// campaign creates a campaign of kind with n videos and returns their
// IDs, minted as the create and upload handlers mint them.
func (r *rig) campaign(kind string, n int) (string, []string) {
	r.tb.Helper()
	id := r.st.NewID("c")
	r.mustApply(&Event{Op: OpCampaign, ID: id, Name: "test", Kind: kind})
	hash, size := r.video()
	var videos []string
	for i := 0; i < n; i++ {
		vid := r.st.NewID("v")
		r.mustApply(&Event{Op: OpVideo, ID: vid, Campaign: id, Hash: hash, Size: size})
		videos = append(videos, vid)
	}
	return id, videos
}

// join joins worker to campaign with the videos Join draws and returns
// the assignment the record's row built, as the join handler does.
func (r *rig) join(campaign, worker string) (string, []AssignedTest) {
	r.tb.Helper()
	sid, videos, err := r.st.Join(campaign, worker)
	if err != nil {
		r.tb.Fatal(err)
	}
	res := r.mustApply(&Event{Op: OpSession, ID: sid, Campaign: campaign, Videos: videos[:],
		Worker: &Worker{ID: worker, Gender: "m", Country: "VE", Source: "crowdflower"}})
	return sid, res.Tests
}

// sevenOf is a session record's draw of one video for every test.
func sevenOf(video string) []string {
	videos := make([]string, TestsPerSession)
	for k := range videos {
		videos[k] = video
	}
	return videos
}

// complete answers every test of session sid after an instruction batch
// and one engagement batch per test.
func (r *rig) complete(sid string, tests []AssignedTest, submittedMs float64, keptOriginal bool, seeks int, outOfFocusMs float64) {
	r.tb.Helper()
	r.mustApply(&Event{Op: OpEvents, ID: sid, Batch: &EventBatch{InstructionMs: 25_000}})
	for _, tt := range tests {
		r.mustApply(&Event{Op: OpEvents, ID: sid, Batch: &EventBatch{
			VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Seeks: seeks, Plays: 1,
			WatchedFraction: 0.9, OutOfFocusMs: outOfFocusMs,
		}})
		r.mustApply(&Event{Op: OpResponse, ID: sid, Body: &ResponseBody{
			TestID: tt.TestID, SliderMs: submittedMs + 200, HelperMs: submittedMs, SubmittedMs: submittedMs, KeptOriginal: keptOriginal,
		}})
	}
}

// seedCampaign gives r a timeline campaign of three videos with four
// kept completed sessions and one its engagement drops, the third video
// banned, and one session in flight with one answer.
func seedCampaign(r *rig) (campaign string, videos []string) {
	r.tb.Helper()
	campaign, videos = r.campaign("timeline", 3)
	for i := 0; i < 4; i++ {
		sid, tests := r.join(campaign, fmt.Sprintf("persist-%d", i))
		r.complete(sid, tests, 1400+float64(i)*137, true, 12, 0)
	}
	sid, tests := r.join(campaign, "persist-away")
	r.complete(sid, tests, 9000, true, 12, 45_000)
	for i := 0; i < BanThreshold; i++ {
		r.mustApply(&Event{Op: OpFlag, ID: videos[2], Flagger: fmt.Sprintf("flagger-%d", i)})
	}
	sid, tests = r.join(campaign, "persist-half")
	r.mustApply(&Event{Op: OpEvents, ID: sid, Batch: &EventBatch{InstructionMs: 20_000}})
	r.mustApply(&Event{Op: OpResponse, ID: sid, Body: &ResponseBody{TestID: tests[0].TestID, SliderMs: 1200, SubmittedMs: 1100, KeptOriginal: true}})
	return campaign, videos
}

// sectionOf returns campaign's section as r's next snapshot would carry
// it; like that snapshot, it spills.
func sectionOf(t *testing.T, r *rig, campaign string) snapCampaign {
	t.Helper()
	var doc snapState
	if err := json.Unmarshal(r.document(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, cn := range doc.Campaigns {
		if cn.ID == campaign {
			return cn
		}
	}
	t.Fatalf("the snapshot carries no section for campaign %s", campaign)
	return snapCampaign{}
}

// loadSections loads a snapshot of sections into a new state over a
// fresh data dir that holds a copy of every campaign file in src's data
// dir (none when src is empty), and returns the state's rig and the
// load's error.
func loadSections(t *testing.T, src string, sections ...snapCampaign) (*rig, error) {
	t.Helper()
	data, err := json.Marshal(&snapState{Version: stateVersion, Campaigns: sections})
	if err != nil {
		t.Fatal(err)
	}
	dst := openRig(t, t.TempDir(), nil)
	if src != "" {
		names, _ := filepath.Glob(filepath.Join(src, filesDir, "*"))
		if err := os.MkdirAll(filepath.Join(dst.dir, filesDir), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			copyFile(t, name, filepath.Join(dst.dir, filesDir, filepath.Base(name)))
		}
	}
	return dst, dst.st.load(data)
}

// copyFile copies file from to file to.
func copyFile(t *testing.T, from, to string) {
	t.Helper()
	b, err := os.ReadFile(from)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(to, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// copyCampaignFiles copies campaign from's files in data dir dir to
// campaign to's.
func copyCampaignFiles(t *testing.T, dir, from, to string) {
	t.Helper()
	for k := range streamExts {
		copyFile(t, filepath.Join(dir, fileName(from, k)), filepath.Join(dir, fileName(to, k)))
	}
}

// assertNothingInstalled fails t unless st holds no campaign, session or
// video: st started empty, and the only documents it was given were
// refused.
func assertNothingInstalled(t *testing.T, st *State) {
	t.Helper()
	if n := st.Counts(); n.Campaigns+n.Sessions+n.Videos != 0 {
		t.Fatalf("a refused document left %d campaigns, %d sessions and %d videos in the indexes", n.Campaigns, n.Sessions, n.Videos)
	}
}

// TestSnapshotCarriesCompletedSessionsAsArena pins the document's
// layout: a snapshot is its counters and its campaigns' sections and
// nothing beside them; a section nests its videos in the campaign's order
// and its sessions in flight, and its completed sessions travel as the
// campaign's files — the section counts them and says how long each file
// is valid for, and carries none of their IDs, records or rows.
func TestSnapshotCarriesCompletedSessionsAsArena(t *testing.T) {
	r := openRig(t, t.TempDir(), nil)
	campaign, vids := seedCampaign(r)
	data := r.document()
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"campaigns", "joined", "next_id", "version"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("snapshot keys %v, want %v", keys, want)
	}
	var sections []map[string]json.RawMessage
	if err := json.Unmarshal(top["campaigns"], &sections); err != nil {
		t.Fatal(err)
	}
	keys = keys[:0]
	for k := range sections[0] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"frozen", "frozen_bytes", "id", "inflight", "kind", "name", "row_bytes", "videos"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("section keys %v, want %v", keys, want)
	}
	var doc snapState
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != stateVersion {
		t.Fatalf("snapshot version %d, want %d", doc.Version, stateVersion)
	}
	c, _ := r.st.Campaign(campaign)
	cn := doc.Campaigns[0]
	if len(cn.Inflight) != 1 || len(cn.Inflight[0].Answers) != 1 {
		t.Fatalf("campaign %s lists %d sessions in flight, want only the one, with its one answer", cn.ID, len(cn.Inflight))
	}
	if cn.Frozen != 5 || c.spilled != 5 {
		t.Fatalf("campaign %s counts %d completed and spilled %d, want 5 and 5", cn.ID, cn.Frozen, c.spilled)
	}
	for i, v := range cn.Videos {
		if v.ID != vids[i] || v.Hash == "" || v.Banned != (i == 2) {
			t.Fatalf("video %d of the section is %+v, want %s with its hash, banned only the third", i, v, vids[i])
		}
	}
	if len(cn.Videos) != len(vids) {
		t.Fatalf("the section carries %d videos, the campaign %d", len(cn.Videos), len(vids))
	}
	frozen, rows := c.records.file, c.rows.file
	if frozen == nil || cn.FrozenBytes == 0 || frozen.Size() != cn.FrozenBytes || frozen.Synced() != cn.FrozenBytes {
		t.Fatalf("the section says the frozen file holds %d bytes, the file is %v", cn.FrozenBytes, frozen)
	}
	if rows.Size() != cn.RowBytes || rows.Synced() != cn.RowBytes || cn.RowBytes == 0 {
		t.Fatalf("the section says the rows file holds %d bytes; it holds %d, %d synced", cn.RowBytes, rows.Size(), rows.Synced())
	}
}

// refusedByVersion writes fixture, a snapshot a version-v server wrote,
// into a data dir and checks that opening a state over it fails with an
// error naming its version and this server's — on the version, not on a
// field whose layout changed — and that load installs nothing of it.
func refusedByVersion(t *testing.T, fixture string, v int) {
	refusedByVersionIn(t, t.TempDir(), fixture, v)
}

// refusedByVersionIn is refusedByVersion over data dir dir, which may
// already hold the campaign files the fixture's server wrote beside it.
func refusedByVersionIn(t *testing.T, dir, fixture string, v int) {
	snapshot, err := os.ReadFile(filepath.Join("testdata", fixture))
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("has schema version %d, this server reads only version %d", v, stateVersion)
	jl, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jl.WriteSnapshot(snapshot); err != nil {
		t.Fatal(err)
	}
	if err := jl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("open over a version-%d snapshot: %v, want an error saying %q", v, err, want)
	}
	st := New(nil, nil)
	if err := st.load(snapshot); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("load: %v, want an error saying %q", err, want)
	}
	assertNothingInstalled(t, st)
}

// TestParentVersion3DocumentsRefused: the snapshot a version-3 server
// wrote (testdata/parent_v3_snapshot.json, the seedCampaign state) lists
// a campaign's videos as IDs and its sessions in flight beside it. It is
// refused by its version.
func TestParentVersion3DocumentsRefused(t *testing.T) {
	t.Run("snapshot", func(t *testing.T) { refusedByVersion(t, "parent_v3_snapshot.json", 3) })
}

// TestParentVersion4SnapshotRefused: the snapshot a version-4 server
// wrote (testdata/parent_v4_snapshot.json) stores in its frozen records
// every test ID less its session-ID prefix, a form this server no longer
// decodes. It is refused by its version.
func TestParentVersion4SnapshotRefused(t *testing.T) {
	refusedByVersion(t, "parent_v4_snapshot.json", 4)
}

// TestParentVersion5SnapshotRefused: the snapshot a version-5 server
// wrote (testdata/parent_v5_snapshot.json, the seedCampaign state)
// carries its completed sessions' IDs and frozen records in the section,
// where this server reads them from the campaign's files. It is refused
// by its version.
func TestParentVersion5SnapshotRefused(t *testing.T) {
	refusedByVersion(t, "parent_v5_snapshot.json", 5)
}

// TestParentVersion6SnapshotRefused: the snapshot a version-6 server
// wrote and its campaign's files (testdata/parent_v6, the seedCampaign
// state) keep each completed session's frozen record behind varint
// lengths and no checksum, where this server reads a checked frame.
// Opening the document and its files is refused by the version, before
// a file is read.
func TestParentVersion6SnapshotRefused(t *testing.T) {
	fixture := filepath.Join("testdata", "parent_v6")
	names, err := filepath.Glob(filepath.Join(fixture, filesDir, "*"))
	if err != nil || len(names) != 2 {
		t.Fatalf("the fixture holds campaign files %v (%v), want two", names, err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, filesDir), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		copyFile(t, name, filepath.Join(dir, filesDir, filepath.Base(name)))
	}
	refusedByVersionIn(t, dir, filepath.Join("parent_v6", "snapshot.json"), 6)
}

// persistedSource seeds seedCampaign's state on a rig over a data dir
// and returns the rig, the dir and the campaign's ID and section, as a
// snapshot taken now carries it: the campaign's completed sessions are
// in its files.
func persistedSource(t *testing.T) (src *rig, dir, campaign string, cn snapCampaign) {
	t.Helper()
	dir = t.TempDir()
	src = openRig(t, dir, nil)
	campaign, _ = seedCampaign(src)
	return src, dir, campaign, sectionOf(t, src, campaign)
}

// completedIDs lists campaign's completed sessions on r in completion
// order.
func completedIDs(r *rig, campaign string) []string {
	c, _ := r.st.Campaign(campaign)
	return c.Completed()
}

// TestStrayInFlightSessionRefused: a section lists its sessions in
// flight itself, so the one stray it can carry is a session it also
// lists as completed, which fails the snapshot load.
func TestStrayInFlightSessionRefused(t *testing.T) {
	src, dir, campaign, cn := persistedSource(t)
	cn.Inflight[0].ID = completedIDs(src, campaign)[0]
	const want = "both completed and in flight"
	if _, err := loadSections(t, dir, cn); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("snapshot load: %v, want an error saying %q", err, want)
	}
}

// TestSectionDrawRefused: a section's session in flight keeps the videos
// its join drew, so one whose draw is not TestsPerSession of the
// campaign's videos fails the snapshot load with ErrInvalidValue naming
// the session, and nothing is installed.
func TestSectionDrawRefused(t *testing.T) {
	for name, draw := range map[string]func(videos []string) []string{
		"six videos":       func(videos []string) []string { return videos[1:] },
		"a foreign video":  func(videos []string) []string { return append(slices.Clone(videos[1:]), "v-elsewhere") },
		"no videos at all": func([]string) []string { return nil },
	} {
		t.Run(name, func(t *testing.T) {
			_, dir, _, cn := persistedSource(t)
			sn := &cn.Inflight[0]
			sn.Videos = draw(sn.Videos)
			dst, err := loadSections(t, dir, cn)
			if !errors.Is(err, ErrInvalidValue) || !strings.Contains(err.Error(), "session "+sn.ID) {
				t.Fatalf("snapshot load: %v, want ErrInvalidValue naming session %s", err, sn.ID)
			}
			assertNothingInstalled(t, dst.st)
		})
	}
}

// videosCopied gives section cn's videos, and the draws of its sessions
// in flight, IDs of their own, so a copy of cn holds none of its videos.
func videosCopied(cn snapCampaign) snapCampaign {
	cn.Videos = slices.Clone(cn.Videos)
	for i := range cn.Videos {
		cn.Videos[i].ID += "-copy"
	}
	cn.Inflight = slices.Clone(cn.Inflight)
	for i := range cn.Inflight {
		sn := &cn.Inflight[i]
		sn.Videos = slices.Clone(sn.Videos)
		for k := range sn.Videos {
			sn.Videos[k] += "-copy"
		}
	}
	return cn
}

// TestSnapshotOfHeldEntitiesRefused: installing a section overwrites
// index entries, so a snapshot whose sections share a campaign, a video
// or a session is refused, rather than cross-wire two campaigns.
func TestSnapshotOfHeldEntitiesRefused(t *testing.T) {
	_, dir, campaign, cn := persistedSource(t)
	copyCampaignFiles(t, dir, campaign, "c-copy")
	for name, c := range map[string]struct {
		copyOf func(cn snapCampaign) snapCampaign
		want   string
	}{
		"campaign": {func(cn snapCampaign) snapCampaign { return snapCampaign{ID: cn.ID, Kind: cn.Kind} }, "already exists"},
		"video": {func(cn snapCampaign) snapCampaign {
			cn.ID, cn.Inflight = "c-copy", nil
			return cn
		}, "already held"},
		"session": {func(cn snapCampaign) snapCampaign {
			cn = videosCopied(cn)
			cn.ID, cn.Frozen, cn.FrozenBytes, cn.RowBytes = "c-copy", 0, 0, 0
			return cn
		}, "already held"},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := loadSections(t, dir, cn, c.copyOf(cn))
			if err == nil || !strings.Contains(err.Error(), name+" ") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("loading a snapshot whose sections share a %s: %v, want an error naming the %s, %q", name, err, name, c.want)
			}
		})
	}
}

// TestSnapshotOfHeldCompletedSessionsRefused: the sessions index holds
// no completed session, so the section that names one an installed
// campaign filed as completed, as completed again or as in flight, is
// found by the merge against that campaign's frozen rows and refused.
func TestSnapshotOfHeldCompletedSessionsRefused(t *testing.T) {
	src, dir, campaign, cn := persistedSource(t)
	copyCampaignFiles(t, dir, campaign, "c-copy")
	completed := completedIDs(src, campaign)
	for name, copyOf := range map[string]func(cn snapCampaign) snapCampaign{
		"completed again": func(cn snapCampaign) snapCampaign {
			cn = videosCopied(cn)
			cn.ID, cn.Inflight = "c-copy", nil
			return cn
		},
		"in flight": func(cn snapCampaign) snapCampaign {
			cn = videosCopied(cn)
			cn.Inflight[0].ID = completed[len(completed)-1]
			cn.ID, cn.Frozen, cn.FrozenBytes, cn.RowBytes = "c-copy", 0, 0, 0
			return cn
		},
	} {
		t.Run(name, func(t *testing.T) {
			dup := copyOf(cn)
			_, err := loadSections(t, dir, cn, dup)
			if err == nil || !strings.Contains(err.Error(), "session ") || !strings.Contains(err.Error(), "already held") {
				t.Fatalf("loading a snapshot whose second section lists a session the first completed: %v, want an error naming the session", err)
			}
			// In the other order, the merge runs against the copy's rows.
			if _, err := loadSections(t, dir, dup, cn); err == nil || !strings.Contains(err.Error(), "already held") {
				t.Fatalf("the same sections in the other order: %v, want an error naming the session", err)
			}
		})
	}
}

// appendSync appends payload to jl and waits until it is durable.
func appendSync(jl *store.Log, payload []byte) (uint64, error) {
	seq, err := jl.AppendAsync(payload)
	if err != nil {
		return 0, err
	}
	return seq, jl.WaitDurable(seq)
}

// appendRecords opens a state over dir, as a server does, so the records
// follow the directory's snapshot, and appends raw journal records to its
// journal.
func appendRecords(t *testing.T, dir string, records ...[]byte) (seq uint64) {
	t.Helper()
	r := openRig(t, dir, nil)
	defer r.close()
	for _, rec := range records {
		var err error
		if seq, err = appendSync(r.jl, rec); err != nil {
			t.Fatal(err)
		}
	}
	return seq
}

// TestSessionForUnknownCampaignRefused: a session is written inside its
// campaign's section, so a journaled join naming a campaign this server
// does not hold fails replay with an error naming that campaign, rather
// than index a session no snapshot would carry.
func TestSessionForUnknownCampaignRefused(t *testing.T) {
	rec, err := json.Marshal(&Event{Op: OpSession, ID: "s9", Campaign: "c999", Worker: &Worker{ID: "w"}, Videos: sevenOf("v1")})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	appendRecords(t, dir, rec)
	if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), "c999") {
		t.Fatalf("replaying a session record naming a campaign the state does not hold: %v, want an error naming campaign c999", err)
	}
}

// TestLeftoverClusterStateRefused: builds with a cluster tier journaled
// handoff and import records to move a campaign between nodes. A journal
// of theirs with no snapshot is refused whole, by its format, before a
// record is replayed. After a snapshot such a record is one no row of
// ops applies: replay refuses it with an error naming its sequence and
// op rather than serve a campaign another node owns. (Their snapshot
// sections marked "moved" are at state version 4 or older, so the
// version refuses them: TestParentVersion4SnapshotRefused.)
func TestLeftoverClusterStateRefused(t *testing.T) {
	campaign := `{"op":"campaign","id":"c1","name":"gone","kind":"timeline"}`
	for op, rec := range map[string]string{
		"handoff": `{"op":"handoff","id":"c1","target":"b"}`,
		"import":  fmt.Sprintf(`{"op":"import","state":{"version":%d,"campaign":{"id":"c2","name":"arrived","kind":"ab"}}}`, stateVersion),
	} {
		t.Run(op+" record", func(t *testing.T) {
			dir := t.TempDir()
			jl, err := store.Open(dir, store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []string{campaign, rec} {
				if _, err := appendSync(jl, []byte(r)); err != nil {
					t.Fatal(err)
				}
			}
			if err := jl.Close(); err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("journal holds 2 records and no snapshot: this server reads only records that follow a snapshot of version %d", stateVersion)
			if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("open over a journal with no snapshot: %v, want an error saying %q", err, want)
			}

			dir = t.TempDir()
			seq := appendRecords(t, dir, []byte(campaign), []byte(rec))
			want = fmt.Sprintf("record %d (%s): unknown journal op %q", seq, op, op)
			if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("replay past a snapshot: %v, want an error saying %q", err, want)
			}
		})
	}
}

// seedOpPrefix applies the prefix every op-table case starts from:
// campaign c1, its video v2 and session s3, which has answered every
// test but its last.
func seedOpPrefix(r *rig) {
	r.tb.Helper()
	hash, size := r.video()
	r.mustApply(&Event{Op: OpCampaign, ID: "c1", Name: "op table", Kind: "timeline"})
	r.mustApply(&Event{Op: OpVideo, ID: "v2", Campaign: "c1", Hash: hash, Size: size})
	tests := r.mustApply(&Event{Op: OpSession, ID: "s3", Campaign: "c1", Worker: &Worker{ID: "w1", Country: "ES"}, Videos: sevenOf("v2")}).Tests
	for k, tt := range tests[:TestsPerSession-1] {
		r.mustApply(&Event{Op: OpResponse, ID: "s3", Body: &ResponseBody{TestID: tt.TestID, SubmittedMs: 1200 + float64(k), KeptOriginal: true}})
	}
}

// TestMalformedJournalRecordRefused: a CRC-valid journal record that
// lacks a field its op reads, or names a campaign kind the create
// handler refuses, fails replay with an error naming the record's
// sequence and op and the field, never a panic and never a replayed
// record. (FuzzStateVsModel holds the live path to the same refusals.)
func TestMalformedJournalRecordRefused(t *testing.T) {
	for _, tc := range []struct {
		op, record, field string
	}{
		{OpSession, `{"op":"session","id":"s9","campaign":"c1"}`, "worker"},
		{OpSession, `{"op":"session","id":"s9","campaign":"c1","worker":{"id":"w"},"videos":["v2","v2","v2","v2","v2","v2"]}`, "videos"},
		{OpSession, `{"op":"session","id":"s9","campaign":"c1","worker":{"id":"w"},"videos":["v2","v2","v2","v9","v2","v2","v2"]}`, "videos"},
		{OpEvents, `{"op":"events","id":"s3"}`, "batch"},
		{OpResponse, `{"op":"response","id":"s3"}`, "body"},
		{OpCampaign, `{"op":"campaign","id":"c77","name":"n","kind":"bogus"}`, "kind"},
		{OpFlag, `{"op":"flag","id":"v2"}`, "flagger"},
	} {
		t.Run(tc.op, func(t *testing.T) {
			dir := t.TempDir()
			r := openRig(t, dir, nil)
			seedOpPrefix(r)
			r.close()
			seq := appendRecords(t, dir, []byte(tc.record))
			err := openErr(t, dir)
			if err == nil {
				t.Fatalf("replayed %s", tc.record)
			}
			for _, want := range []string{fmt.Sprintf("record %d (%s)", seq, tc.op), tc.field} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("replay: %v, want an error naming %q", err, want)
				}
			}
		})
	}
}

// arenaCorruptions cut or misnumber a campaign's completed sessions —
// its section in the document, or its frozen file in data dir dir — each
// in a way restore must refuse with an error naming the campaign and,
// unless row is false, the row.
var arenaCorruptions = map[string]struct {
	corrupt func(t *testing.T, dir string, cn *snapCampaign)
	row     bool
}{
	// The frozen file and the document lose the last byte of the last
	// record alike.
	"truncated record": {func(t *testing.T, dir string, cn *snapCampaign) {
		if err := os.Truncate(filepath.Join(dir, fileName(cn.ID, 0)), cn.FrozenBytes-1); err != nil {
			t.Fatal(err)
		}
		cn.FrozenBytes--
	}, true},
	"video out of range": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.Videos = cn.Videos[:1] }, true},
	// The document says the frozen file is longer than it is.
	"ends past the arena": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.FrozenBytes += 40 }, false},
	// The document ends the rows file inside the last row.
	"ends out of order": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.RowBytes-- }, true},
	// The document counts fewer completed sessions than the files hold.
	"missing ends": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.Frozen-- }, false},
	// The document gives the rows file a negative length.
	"negative length": {func(_ *testing.T, _ string, cn *snapCampaign) { cn.RowBytes = -1 }, false},
}

// TestCorruptArenaRefused: a state document arrives from outside the
// process, so a record that is cut short, points outside its campaign's
// videos or is not where the row ends say fails the snapshot load and
// the open with an error naming the campaign and the row — never a
// panic, and never a half-installed campaign.
func TestCorruptArenaRefused(t *testing.T) {
	for name, corruption := range arenaCorruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			durable := openRig(t, dir, nil)
			campaign, _ := seedCampaign(durable)
			cn := sectionOf(t, durable, campaign)
			corruption.corrupt(t, dir, &cn)
			dst, err := loadSections(t, dir, cn)
			if err == nil || !strings.Contains(err.Error(), "campaign "+campaign) {
				t.Fatalf("snapshot load: %v, want an error naming campaign %s", err, campaign)
			}
			if corruption.row && !strings.Contains(err.Error(), "row ") {
				t.Fatalf("snapshot load: %v, want an error naming the row", err)
			}
			assertNothingInstalled(t, dst.st)

			// The same section in the data dir's snapshot fails the open.
			data, err := json.Marshal(&snapState{Version: stateVersion, Campaigns: []snapCampaign{cn}})
			if err != nil {
				t.Fatal(err)
			}
			if err := durable.jl.WriteSnapshot(data); err != nil {
				t.Fatal(err)
			}
			durable.close()
			if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), "campaign "+campaign) {
				t.Fatalf("open over a snapshot with a corrupt arena: %v, want an error naming campaign %s", err, campaign)
			}
		})
	}
}

// TestWrongVersionStateRefused: a snapshot that does not carry the
// current schema version — version 4, whose frozen records kept every
// test ID less its session-ID prefix, version 3, which listed videos and
// sessions in flight beside the campaigns, version 2, which listed
// completed sessions one DTO each, a version not written yet, and the
// unversioned layout older builds wrote — fails the open with an error
// naming the version, rather than loading as empty sessions.
func TestWrongVersionStateRefused(t *testing.T) {
	current := []byte(fmt.Sprintf(`"version":%d`, stateVersion))
	for name, replacement := range map[string]string{
		"version 4": `"version":4`, "version 3": `"version":3`, "version 2": `"version":2`,
		"newer": fmt.Sprintf(`"version":%d`, stateVersion+1), "older": `"version":1`, "unversioned": `"v":0`,
	} {
		t.Run("snapshot/"+name, func(t *testing.T) {
			dir := t.TempDir()
			r := openRig(t, dir, nil)
			seedCampaign(r)
			data := r.document()
			if !bytes.Contains(data, current) {
				t.Fatalf("snapshot carries no %s", current)
			}
			if err := r.jl.WriteSnapshot(bytes.Replace(data, current, []byte(replacement), 1)); err != nil {
				t.Fatal(err)
			}
			r.close()
			if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("version %d", stateVersion)) {
				t.Fatalf("open over a %s snapshot: %v, want an error naming version %d", name, err, stateVersion)
			}
		})
	}
}

// TestVideoWithoutHashRefused: every video record and DTO this repo has
// written carries a content address; one without is an error naming the
// video, on journal replay and on snapshot load alike.
func TestVideoWithoutHashRefused(t *testing.T) {
	blobs, err := blob.Open(blob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := blobs.Put(strings.NewReader(standIn))
	if err != nil {
		t.Fatal(err)
	}
	st := New(blobs, nil)
	for _, ev := range []*Event{
		{Op: OpCampaign, ID: "c1", Name: "test", Kind: "timeline"},
		{Op: OpVideo, ID: "v2", Campaign: "c1", Hash: ref.Hash, Size: ref.Size},
	} {
		if _, _, err := st.Apply(ev, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = st.Apply(&Event{Op: OpVideo, ID: "v77", Campaign: "c1"}, nil)
	if err == nil || !strings.Contains(err.Error(), "v77") {
		t.Fatalf("replaying a hashless video record: %v, want an error naming v77", err)
	}
	var data []byte
	if err := st.Snapshot(func(b []byte) error { data = b; return nil }); err != nil {
		t.Fatal(err)
	}
	var doc snapState
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	id := doc.Campaigns[0].Videos[0].ID
	doc.Campaigns[0].Videos[0].Hash = ""
	if data, err = json.Marshal(&doc); err != nil {
		t.Fatal(err)
	}
	if err := New(blobs, nil).load(data); err == nil || !strings.Contains(err.Error(), id) {
		t.Fatalf("loading a hashless video DTO: %v, want an error naming %s", err, id)
	}
}

// TestCampaignIDThatCannotNameAFileRefused: a journaled campaign record
// whose ID cannot name campaigns/<id>.frozen — a NUL, a path separator,
// "." or "..", an empty or over-long name — is refused before it is
// journaled, and the snapshot after it succeeds; a state document that
// lists such a campaign fails the open naming the ID. IDs that are file
// names but outside validCampaignID, as older builds journaled them (a
// number past 2^53, the longest name that fits), apply, snapshot and
// reopen.
func TestCampaignIDThatCannotNameAFileRefused(t *testing.T) {
	dir := t.TempDir()
	r := openRig(t, dir, nil)
	for _, id := range []string{"\x00", "c1/x", "../x", `c1\x`, ".", "..", "", strings.Repeat("c", 249)} {
		before := r.jl.Seq()
		if _, err := r.apply(&Event{Op: OpCampaign, ID: id, Name: "n", Kind: "timeline"}); err == nil {
			t.Fatalf("campaign record with ID %q applied", id)
		}
		if after := r.jl.Seq(); after != before {
			t.Fatalf("refused campaign record with ID %q moved the journal from %d to %d", id, before, after)
		}
		if err := r.snapshot(); err != nil {
			t.Fatalf("snapshot after refusing ID %q: %v", id, err)
		}
	}
	accepted := []string{"c9007199254740993", strings.Repeat("c", 248), "x.y"}
	for _, id := range accepted {
		if validCampaignID(id) {
			t.Fatalf("%q is a valid caller ID; the case wants one outside validCampaignID", id)
		}
		r.mustApply(&Event{Op: OpCampaign, ID: id, Name: "n", Kind: "timeline"})
	}
	if err := r.snapshot(); err != nil {
		t.Fatal(err)
	}
	doc := r.document()
	if err := r.reopen(); err != nil {
		t.Fatal(err)
	}
	for _, id := range accepted {
		if _, ok := r.st.Campaign(id); !ok {
			t.Fatalf("campaign %q did not survive the reopen", id)
		}
	}
	// The same document with one campaign renamed "../x".
	if err := r.jl.WriteSnapshot(bytes.Replace(doc, []byte(`"x.y"`), []byte(`"../x"`), 1)); err != nil {
		t.Fatal(err)
	}
	r.close()
	if err := openErr(t, dir); err == nil || !strings.Contains(err.Error(), `"../x"`) {
		t.Fatalf("open over a document listing campaign ../x: %v, want an error naming the ID", err)
	}
}

// completeN completes n sessions of campaign, timeline or A/B, whose
// workers are named from tag, each with its own answers and engagement.
func completeN(r *rig, campaign, tag string, n int) {
	r.tb.Helper()
	for i := 0; i < n; i++ {
		sid, tests := r.join(campaign, fmt.Sprintf("%s-%d", tag, i))
		for k, tt := range tests {
			r.mustApply(&Event{Op: OpEvents, ID: sid, Batch: &EventBatch{
				VideoID: tt.VideoID, LoadMs: 900, TimeOnVideoMs: 21_000, Plays: 1, Seeks: 4 + i%7,
				WatchedFraction: 0.9, OutOfFocusMs: float64(i%3) * 20_000,
			}})
			r.mustApply(&Event{Op: OpResponse, ID: sid, Body: &ResponseBody{
				TestID: tt.TestID, SubmittedMs: 1_000 + float64((i*97+k*31)%1500), KeptOriginal: i%5 != 0,
				Choice: []string{"left", "right", "no difference"}[(i+k)%3],
			}})
		}
	}
}

// views returns each campaign's /results and /analytics bytes.
func views(t *testing.T, r *rig, campaigns []string) map[string][2][]byte {
	t.Helper()
	out := map[string][2][]byte{}
	for _, id := range campaigns {
		results, _, err := r.st.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		analytics, err := r.analytics(id, 25, 75)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = [2][]byte{results, analytics}
	}
	return out
}

// TestSpillSyncedBeforeDocument: every byte a state document covers was
// synced before the document was written, so a power loss that drops
// whatever the files' last sync did not cover still reopens onto the
// same views.
func TestSpillSyncedBeforeDocument(t *testing.T) {
	dir := t.TempDir()
	r := openRig(t, dir, nil)
	var campaigns []string
	for _, kind := range []string{"timeline", "ab"} {
		id, _ := r.campaign(kind, 3)
		completeN(r, id, "first", 6)
		r.join(id, "in-flight-"+kind)
		campaigns = append(campaigns, id)
	}
	files := func(id string) []*store.File {
		c, _ := r.st.Campaign(id)
		return []*store.File{c.records.file, c.rows.file}
	}
	for round := 0; round < 2; round++ {
		err := r.st.Snapshot(func(data []byte) error {
			var doc snapState
			if err := json.Unmarshal(data, &doc); err != nil {
				return err
			}
			for i, id := range campaigns {
				cn := doc.Campaigns[i]
				for k, f := range files(id) {
					if want := [2]int64{cn.FrozenBytes, cn.RowBytes}[k]; cn.ID != id || f.Synced() < want {
						return fmt.Errorf("%s: %d bytes synced when the document covering %d is written", f.Name(), f.Synced(), want)
					}
				}
			}
			return r.jl.WriteSnapshot(data)
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range campaigns {
			completeN(r, id, fmt.Sprintf("round-%d", round), 4)
		}
	}
	want := views(t, r, campaigns)
	// The power loss: each file keeps what its last sync covered, and the
	// state is dropped without a close.
	for _, id := range campaigns {
		for _, f := range files(id) {
			if err := os.Truncate(filepath.Join(dir, f.Name()), f.Synced()); err != nil {
				t.Fatal(err)
			}
		}
	}
	after := openRig(t, dir, nil)
	if got := views(t, after, campaigns); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened after losing every unsynced byte:\n%s\nwant\n%s", got, want)
	}
}
