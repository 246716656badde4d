package state_test

// The HTTP tier judged by the reference model (model_test.go): the
// programs FuzzStateVsModel applies to the state are sent here as the
// requests a client sends, through Server.Handler(), to a server in
// memory and to one over a data directory, and every reply and view is
// held to the model's. TestCrowdVsModel runs concurrent participants,
// which no sequential program can, and holds what they leave to the
// model fed the server's own journal.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"github.com/eyeorg/eyeorg/internal/adaptive"
	"github.com/eyeorg/eyeorg/internal/blob"
	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/platform/state"
	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// The bits of a program's header FuzzServerVsModel reads beside bit 0
// (adaptive campaigns).
const (
	headerSwap    = 2 // events ops travel as EYB1 batches, batch ops as JSON events
	headerFsync   = 4 // the durable server fsyncs every window
	headerCadence = 8 // ... and snapshots every few records, at the request that crosses
)

// refusalStatus is the status the API answers each of the model's
// refusals with.
var refusalStatus = map[error]int{
	state.ErrNoCampaign: http.StatusNotFound, state.ErrNoSession: http.StatusNotFound, state.ErrNoVideo: http.StatusNotFound,
	state.ErrDuplicateTest: http.StatusConflict, state.ErrSessionDone: http.StatusConflict, state.ErrCampaignClosed: http.StatusConflict,
	state.ErrCampaignExists: http.StatusConflict, state.ErrNoUsableVideos: http.StatusConflict, state.ErrHeld: http.StatusConflict,
	state.ErrUnknownTest: http.StatusBadRequest, state.ErrBadChoice: http.StatusBadRequest, state.ErrInvalidValue: http.StatusBadRequest,
}

// statusOf is the status of a request the model answered err.
func statusOf(t *testing.T, err error, accepted int) int {
	if err == nil {
		return accepted
	}
	status, ok := refusalStatus[err]
	if !ok {
		t.Fatalf("the model refused a request with %v, which no client request carries", err)
	}
	return status
}

// jsonLine is encoding/json's rendering of v, as the API sends it.
func jsonLine(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// payload is a valid EYV1 video of two frames.
func payload() []byte {
	f := vision.NewFrame()
	f.Set(0, 0, 1)
	return video.Encode(&video.Video{FPS: video.DefaultFPS, Frames: []*vision.Frame{vision.NewFrame(), f}})
}

// contentAddress is the hash and size the blob store files b under.
func contentAddress(t testing.TB, b []byte) (string, int64) {
	blobs, err := blob.Open(blob.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := blobs.Put(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	return ref.Hash, ref.Size
}

// routable reports whether id can be a request path's {id}: the router
// redirects a path with an empty, "." or ".." segment.
func routable(id string) bool { return id != "" && id != "." && id != ".." }

// target is a server a program drives: one in memory, or one over a data
// directory, which the program snapshots, closes and reopens.
type target struct {
	t    *testing.T
	opts platform.Options
	srv  *platform.Server
	h    http.Handler
}

func (tg *target) open() {
	tg.t.Helper()
	srv, err := platform.Open(tg.opts)
	if err != nil {
		tg.t.Fatalf("open %s: %v", tg.opts.DataDir, err)
	}
	tg.srv, tg.h = srv, srv.Handler()
}

func (tg *target) close() {
	tg.t.Helper()
	if err := tg.srv.Close(); err != nil {
		tg.t.Fatalf("close %s: %v", tg.opts.DataDir, err)
	}
}

func (tg *target) name() string {
	if tg.opts.DataDir == "" {
		return "in memory"
	}
	return "on disk"
}

// do serves one request, whose body is sent with its length, as a client
// sends it.
func (tg *target) do(method, path, contentType string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	tg.h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// request is an op as the request a client sends, and the reply the
// model expects: its status, and its body when the op is accepted (nil:
// any).
type request struct {
	method, path, contentType string
	body                      []byte
	status                    int
	reply                     []byte
}

// serverRunner runs a program on the targets and the model.
type serverRunner struct {
	*state.Program
	t       *testing.T
	targets []*target
	payload []byte // the one valid video, whose content address is hash
	hash    string
}

// request turns ev into the request that carries it and applies it to
// the model, which mints what the server mints. It reports false for an
// op no request carries.
func (d *serverRunner) request(ev *state.Event) (request, bool) {
	m, t := d.Model, d.t
	switch ev.Op {
	case state.OpCampaign:
		body := jsonLine(platform.CreateCampaignRequest{ID: ev.ID, Name: ev.Name, Kind: ev.Kind})
		id, err := m.NewCampaignID(ev.ID, ev.Name, ev.Kind)
		if err == nil {
			ev.ID = id
			_, err = m.Apply(ev)
		}
		return request{"POST", "/api/v1/campaigns", "", body, statusOf(t, err, http.StatusCreated), jsonLine(platform.CreateCampaignResponse{ID: id})}, true
	case state.OpVideo:
		if !routable(ev.Campaign) {
			return request{}, false
		}
		r := request{method: "POST", path: "/api/v1/campaigns/" + url.PathEscape(ev.Campaign) + "/videos", body: d.payload}
		switch {
		case m.Results(ev.Campaign) == nil:
			r.status = http.StatusNotFound
		case ev.Hash != d.hash:
			r.body, r.status = []byte("not a video"), http.StatusUnprocessableEntity
		default:
			ev.ID, ev.Size = m.NewID("v"), int64(len(d.payload))
			_, err := m.Apply(ev)
			r.status, r.reply = statusOf(t, err, http.StatusCreated), jsonLine(platform.AddVideoResponse{ID: ev.ID})
		}
		return r, true
	case state.OpSession:
		// Every session is a join: the server mints its ID and draws its
		// assignment.
		join := platform.JoinRequest{Campaign: ev.Campaign}
		if ev.Worker == nil {
			return request{"POST", "/api/v1/sessions", "", jsonLine(join), http.StatusForbidden, nil}, true
		}
		join.Worker, join.Captcha = *ev.Worker, "tok"
		sid, videos, err := m.Join(ev.Campaign, ev.Worker.ID)
		var res state.Result
		if err == nil {
			ev.ID, ev.Videos = sid, videos
			res, err = m.Apply(ev)
		}
		return request{"POST", "/api/v1/sessions", "", jsonLine(join), statusOf(t, err, http.StatusCreated), jsonLine(platform.JoinResponse{Session: sid, Tests: res.Tests})}, true
	case state.OpEvents:
		if !routable(ev.ID) {
			return request{}, false
		}
		r := request{method: "POST", path: "/api/v1/sessions/" + url.PathEscape(ev.ID) + "/events"}
		var err error
		if r.body, err = json.Marshal(ev.Batch); ev.Batch == nil || err != nil {
			// No batch, or one with a NaN or infinity, which JSON cannot
			// carry: a number past float64 fails the decode as they would.
			r.body, r.status = []byte(`{"load_ms":1e999}`), http.StatusBadRequest
			return r, true
		}
		_, err = m.Apply(ev)
		r.status, r.reply = statusOf(t, err, http.StatusAccepted), []byte(`{"status":"recorded"}`+"\n")
		return r, true
	case state.OpBatch:
		if !routable(ev.ID) {
			return request{}, false
		}
		r := request{method: "POST", path: "/api/v1/sessions/" + url.PathEscape(ev.ID) + "/events", contentType: wire.ContentType, body: ev.Wire}
		recs, err := wire.NewDecoder().Decode(ev.Wire)
		if err != nil {
			r.status = http.StatusBadRequest
			return r, true
		}
		ev.Records = nil // the model decodes the payload itself
		_, err = m.Apply(ev)
		r.status, r.reply = statusOf(t, err, http.StatusAccepted), []byte(`{"records":`+strconv.Itoa(len(recs))+`,"status":"recorded"}`+"\n")
		return r, true
	case state.OpResponse:
		if !routable(ev.ID) {
			return request{}, false
		}
		r := request{method: "POST", path: "/api/v1/sessions/" + url.PathEscape(ev.ID) + "/responses"}
		var err error
		if ev.Body == nil {
			r.status = http.StatusBadRequest // an empty body
			return r, true
		}
		if r.body, err = json.Marshal(ev.Body); err != nil {
			r.body, r.status = []byte(`{"submitted_ms":1e999}`), http.StatusBadRequest
			return r, true
		}
		res, err := m.Apply(ev)
		r.status, r.reply = statusOf(t, err, http.StatusAccepted), jsonLine(map[string]bool{"session_complete": res.Done})
		return r, true
	case state.OpFlag:
		if !routable(ev.ID) {
			return request{}, false
		}
		res, err := m.Apply(ev)
		return request{"POST", "/api/v1/videos/" + url.PathEscape(ev.ID) + "/flag", "", jsonLine(map[string]string{"worker": ev.Flagger}),
			statusOf(t, err, http.StatusOK), jsonLine(map[string]any{"flags": res.Flags, "banned": res.Banned})}, true
	}
	return request{}, false // an op no row applies: only a journal carries one
}

// step runs op i, of code row or ProgSnapshot/ProgReopen, on every
// target, and holds each reply to the model's.
func (d *serverRunner) step(i, code int) {
	t := d.t
	switch code {
	case state.ProgSnapshot:
		for _, tg := range d.targets {
			if err := tg.srv.Snapshot(); err != nil {
				t.Fatalf("op %d: snapshot %s: %v", i, tg.name(), err)
			}
		}
		return
	case state.ProgReopen:
		d.reopen()
		return
	}
	row := state.ProgOps[code]
	if d.Header&headerSwap != 0 {
		row = map[string]string{state.OpEvents: state.OpBatch, state.OpBatch: state.OpEvents}[row]
		if row == "" {
			row = state.ProgOps[code]
		}
	}
	ev := d.Event(row)
	r, ok := d.request(ev)
	if !ok {
		return
	}
	for _, tg := range d.targets {
		status, body := tg.do(r.method, r.path, r.contentType, r.body)
		if status != r.status || status < 300 && r.reply != nil && !bytes.Equal(body, r.reply) {
			t.Fatalf("op %d: %s %s %s: %d %s, the model answers %d %s", i, tg.name(), r.method, r.path, status, body, r.status, r.reply)
		}
	}
	if r.status < 300 {
		d.Applied(ev)
	}
}

// reopen closes the durable server and opens its data directory again.
func (d *serverRunner) reopen() {
	for _, tg := range d.targets {
		if tg.opts.DataDir != "" {
			tg.close()
			tg.open()
		}
	}
}

// compare holds every target's views to the model's: each campaign's
// /results and its /analytics over [lo, hi], each session's tests and
// each video's status (410 once banned).
func (d *serverRunner) compare(how string, lo, hi float64) {
	t, m := d.t, d.Model
	query := ""
	if lo != filtering.WisdomLo || hi != filtering.WisdomHi {
		query = "?lo=" + strconv.FormatFloat(lo, 'g', -1, 64) + "&hi=" + strconv.FormatFloat(hi, 'g', -1, 64)
	}
	for _, tg := range d.targets {
		get := func(path string, want []byte) {
			if status, body := tg.do("GET", path, "", nil); status != http.StatusOK || !bytes.Equal(body, want) {
				t.Fatalf("%s: %s GET %s: %d\n got %s\nwant %s", how, tg.name(), path, status, body, want)
			}
		}
		for _, id := range m.Campaigns() {
			if routable(id) {
				base := "/api/v1/campaigns/" + url.PathEscape(id)
				get(base+"/results", m.Results(id))
				get(base+"/analytics"+query, m.Analytics(id, lo, hi))
			}
		}
		for _, id := range m.Sessions() {
			get("/api/v1/sessions/"+url.PathEscape(id)+"/tests", jsonLine(platform.JoinResponse{Session: id, Tests: m.Tests(id)}))
		}
		for id, banned := range m.Banned() {
			want := http.StatusOK
			if banned {
				want = http.StatusGone
			}
			if status, _ := tg.do("HEAD", "/api/v1/videos/"+url.PathEscape(id), "", nil); status != want {
				t.Fatalf("%s: %s HEAD video %s: %d, want %d", how, tg.name(), id, status, want)
			}
		}
	}
}

// FuzzServerVsModel sends FuzzStateVsModel's programs through
// Server.Handler() as the requests a client sends, to a server in memory
// and to one over a data directory, and holds both to the reference
// model. Every create, upload and join is one the server mints an ID
// for, and every session one it draws an assignment for, so the model's
// own minting and drawing judge them. Each request gets the model's
// status — a refusal the one its sentinel maps to — and an accepted one
// the model's reply, byte for byte. After every op both servers serve
// each campaign's /results and its /analytics at the op's band as the
// model renders them, each session's tests as the model drew them, and
// each video's status, 410 once banned. The header's bit 0
// switches adaptive campaigns on; headerSwap sends the program's JSON
// events as EYB1 batches and its batches as JSON; headerFsync and
// headerCadence pick the durable server's options. Snapshots, and a
// close and reopen of the durable server, come where the program puts
// them, and one more reopen ends it.
func FuzzServerVsModel(f *testing.F) {
	for _, seed := range state.ModelSeeds() {
		for _, bits := range []byte{0, headerSwap | headerFsync | headerCadence} {
			f.Add(append([]byte{seed[0] | bits}, seed[1:]...), "wéird<id>", "c1.rows", 0.75)
		}
	}
	video := payload()
	hash, size := contentAddress(f, video)
	f.Fuzz(func(t *testing.T, prog []byte, a, b string, x float64) {
		p := state.NewProgram(prog, a, b, x, hash, size)
		opts := platform.Options{}
		if cfg := state.AdaptiveConfig(prog); cfg != nil {
			opts.Adaptive, opts.CIHalfWidth = true, cfg.HalfWidth
		}
		durable := opts
		durable.DataDir, durable.SnapshotEvery = filepath.Join(t.TempDir(), "data"), -1
		durable.Fsync = p.Header&headerFsync != 0
		if p.Header&headerCadence != 0 {
			durable.SnapshotEvery = 5
		}
		d := &serverRunner{Program: p, t: t, payload: video, hash: hash}
		for _, o := range []platform.Options{opts, durable} {
			tg := &target{t: t, opts: o}
			tg.open()
			t.Cleanup(func() { tg.srv.Close() })
			d.targets = append(d.targets, tg)
		}
		for i := 0; ; i++ {
			code, ok := d.Next()
			if !ok {
				break
			}
			d.step(i, code)
			lo, hi := d.Band()
			d.compare("op "+strconv.Itoa(i), lo, hi)
		}
		d.reopen()
		d.compare("reopened at the end", filtering.WisdomLo, filtering.WisdomHi)
	})
}

// TestCrowdVsModel: eight participants at a time, half sending JSON
// events one batch a request and half EYB1 batches of what they buffered
// since their last flush, run sessions of every §4.3 profile (kept, seek
// storms, absences excused or not, a video never played, failed
// controls, sessions abandoned halfway, sub-millisecond and negative
// durations) into one campaign of a durable server, and meet the
// refusals a client meets on the way: a duplicate answer, events after
// completion, an unknown test. Which record lands first is the server's
// to pick, so the model is fed the server's own order, its journal:
// every record in it applies to the model, and the /results and
// /analytics (at the default band and at 10–90) the server served are
// the model's bytes, and so are the reopened server's. Run under -race,
// the campaign's shard locks see real contention.
func TestCrowdVsModel(t *testing.T) {
	for _, adaptiveOn := range []bool{false, true} {
		for _, kind := range []string{"timeline", "ab"} {
			t.Run(fmt.Sprintf("%s/adaptive=%v", kind, adaptiveOn), func(t *testing.T) {
				video := payload()
				hash, _ := contentAddress(t, video)
				tg := &target{t: t, opts: platform.Options{DataDir: t.TempDir(), SnapshotEvery: -1}}
				var cfg *adaptive.Config
				if adaptiveOn {
					// A vanishing half-width keeps a timeline campaign open, and
					// an A/B campaign's random votes resolve too few videos to
					// close it.
					tg.opts.Adaptive, tg.opts.CIHalfWidth = true, 1e-9
					cfg = &adaptive.Config{HalfWidth: 1e-9}
				}
				tg.open()
				status, body := tg.do("POST", "/api/v1/campaigns", "", jsonLine(platform.CreateCampaignRequest{Name: "crowd", Kind: kind}))
				var created platform.CreateCampaignResponse
				if status != http.StatusCreated || json.Unmarshal(body, &created) != nil {
					t.Fatalf("create: %d %s", status, body)
				}
				campaign := created.ID
				for i := 0; i < 3; i++ {
					if status, body := tg.do("POST", "/api/v1/campaigns/"+campaign+"/videos", "", video); status != http.StatusCreated {
						t.Fatalf("upload: %d %s", status, body)
					}
				}
				const workers, sessions = 8, 5
				errs := make(chan error, workers)
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						r := rand.New(rand.NewSource(int64(w)))
						for i := 0; i < sessions; i++ {
							if err := crowdSession(tg, r, campaign, kind, fmt.Sprintf("w%d-%d", w, i), w%2 == 1); err != nil {
								errs <- fmt.Errorf("worker %d: %w", w, err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				paths := []string{"/results", "/analytics", "/analytics?lo=10&hi=90"}
				views := func() (got [3][]byte) {
					for i, path := range paths {
						status, body := tg.do("GET", "/api/v1/campaigns/"+campaign+path, "", nil)
						if status != http.StatusOK {
							t.Fatalf("GET %s: %d", path, status)
						}
						got[i] = body
					}
					return got
				}
				served := views()
				tg.close()

				m := state.NewModel(cfg, hash)
				jl, err := store.Open(tg.opts.DataDir, store.Options{})
				if err != nil {
					t.Fatal(err)
				}
				err = jl.Replay(func(seq uint64, payload []byte) error {
					var ev state.Event
					if err := json.Unmarshal(payload, &ev); err != nil {
						return err
					}
					if _, err := m.Apply(&ev); err != nil {
						return fmt.Errorf("record %d, %s %s: the model refuses it: %w", seq, ev.Op, ev.ID, err)
					}
					return nil
				})
				if cerr := jl.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					t.Fatal(err)
				}
				want := [3][]byte{m.Results(campaign), m.Analytics(campaign, filtering.WisdomLo, filtering.WisdomHi), m.Analytics(campaign, 10, 90)}
				var res platform.ResultsResponse
				if err := json.Unmarshal(want[0], &res); err != nil || res.Participants == 0 {
					t.Fatalf("no session completed (%v): %s", err, want[0])
				}
				tg.open()
				defer tg.close()
				for i, got := range [][3][]byte{served, views()} {
					for k := range got {
						if !bytes.Equal(got[k], want[k]) {
							t.Fatalf("%s %s (reopened: %v):\n got %s\nwant %s", campaign, paths[k], i == 1, got[k], want[k])
						}
					}
				}
			})
		}
	}
}

// crowdSession runs one participant through a session: a join, engagement
// batches buffered and flushed at random points (each batch a JSON
// request, or each flush one EYB1 request), answers to every test or, for
// an abandoned session, the first few, and the refusals profile and r
// pick.
func crowdSession(tg *target, r *rand.Rand, campaign, kind, worker string, binary bool) error {
	expect := func(want int, path, contentType string, body []byte) ([]byte, error) {
		status, reply := tg.do("POST", path, contentType, body)
		if status != want {
			return nil, fmt.Errorf("POST %s: %d %s, want %d", path, status, reply, want)
		}
		return reply, nil
	}
	reply, err := expect(http.StatusCreated, "/api/v1/sessions", "", jsonLine(platform.JoinRequest{
		Campaign: campaign, Worker: platform.Worker{ID: worker, Gender: "f", Country: "IT", Source: "crowd"}, Captcha: "tok",
	}))
	var jr platform.JoinResponse
	if err == nil {
		err = json.Unmarshal(reply, &jr)
	}
	if err != nil {
		return err
	}
	events, responses := "/api/v1/sessions/"+jr.Session+"/events", "/api/v1/sessions/"+jr.Session+"/responses"
	var pending []platform.EventBatch
	flush := func(want int) error {
		defer func() { pending = pending[:0] }()
		if binary && len(pending) > 0 {
			var recs []wire.Record
			for _, b := range pending {
				recs = platform.AppendWireRecords(recs, b)
			}
			var enc wire.Encoder
			_, err := expect(want, events, wire.ContentType, enc.AppendBatch(nil, recs))
			return err
		}
		for _, b := range pending {
			if _, err := expect(want, events, "", jsonLine(b)); err != nil {
				return err
			}
		}
		return nil
	}
	profile := r.Intn(8)
	answered, skip := len(jr.Tests), -1
	switch profile {
	case 4: // one video never played: the soft rule
		skip = r.Intn(len(jr.Tests))
	case 7: // abandoned halfway
		answered = r.Intn(len(jr.Tests))
	}
	first := platform.EventBatch{InstructionMs: 10_000 + r.Float64()*30_000}
	if r.Intn(3) == 0 { // instruction and engagement in one JSON body, two records
		first = crowdBatch(r, profile, jr.Tests[0].VideoID)
		first.InstructionMs = 10_000 + r.Float64()*30_000
	}
	pending = append(pending, first)
	for i, tt := range jr.Tests {
		if i != skip {
			for n := 1 + r.Intn(2); n > 0; n-- { // a later batch replaces an earlier one
				pending = append(pending, crowdBatch(r, profile, tt.VideoID))
			}
		}
		if r.Intn(16) == 0 { // a video the session was never assigned
			pending = append(pending, crowdBatch(r, 0, "ghost-video"))
		}
		if r.Intn(3) == 0 {
			if err := flush(http.StatusAccepted); err != nil {
				return err
			}
		}
	}
	if err := flush(http.StatusAccepted); err != nil {
		return err
	}
	for _, tt := range jr.Tests[:answered] {
		answer := jsonLine(crowdAnswer(r, kind, profile, tt))
		if _, err := expect(http.StatusAccepted, responses, "", answer); err != nil {
			return err
		}
		if r.Intn(8) == 0 {
			if _, err := expect(http.StatusConflict, responses, "", answer); err != nil {
				return err
			}
		}
	}
	if answered == len(jr.Tests) && r.Intn(4) == 0 { // events after completion
		pending = append(pending, crowdBatch(r, 1, jr.Tests[0].VideoID))
		if err := flush(http.StatusConflict); err != nil {
			return err
		}
	}
	if r.Intn(8) == 0 {
		_, err = expect(http.StatusBadRequest, responses, "", jsonLine(platform.ResponseBody{TestID: "nope", SubmittedMs: 1, Choice: "left"}))
	}
	return err
}

// crowdBatch is one engagement batch for video of a session of profile.
func crowdBatch(r *rand.Rand, profile int, video string) platform.EventBatch {
	b := platform.EventBatch{
		VideoID: video, LoadMs: 500 + r.Float64()*1500, TimeOnVideoMs: 5_000 + r.Float64()*20_000,
		Plays: 1, Seeks: r.Intn(15), Pauses: r.Intn(3), WatchedFraction: r.Float64(),
	}
	switch profile {
	case 1: // a seek storm
		b.Seeks = 100 + r.Intn(300)
	case 2: // a long absence no slow load excuses
		b.OutOfFocusMs = 12_000 + r.Float64()*30_000
	case 3: // a long absence a slower load excuses
		b.OutOfFocusMs = 12_000 + r.Float64()*10_000
		b.LoadMs = b.OutOfFocusMs + 1_000 + r.Float64()*5_000
	case 6: // sub-microsecond and negative durations
		b.LoadMs, b.TimeOnVideoMs, b.OutOfFocusMs = r.Float64()*1e-3, -r.Float64(), 1234.567891+r.Float64()
	}
	return b
}

// crowdAnswer is the answer to test tt of a session of profile: profile 5
// fails the control.
func crowdAnswer(r *rand.Rand, kind string, profile int, tt platform.AssignedTest) platform.ResponseBody {
	if kind == "ab" {
		choice := []string{"left", "right", "no difference"}[r.Intn(3)]
		if tt.Control {
			choice = map[bool]string{false: "no difference", true: "right"}[profile == 5]
		}
		return platform.ResponseBody{TestID: tt.TestID, Choice: choice}
	}
	sub := 800 + r.Float64()*4_000
	return platform.ResponseBody{TestID: tt.TestID, SliderMs: sub + 200, HelperMs: sub - 100, SubmittedMs: sub, KeptOriginal: !(tt.Control && profile == 5)}
}
