// The cross-protocol differential harness: randomized session
// interleavings driven through per-event JSON ingestion on one server
// and binary batch (EYB1) ingestion on another must land byte-identical
// /results and /analytics — including across a crash and journal replay
// that lands mid-way through a session's flush sequence.
//
// Determinism discipline: allocation (campaign/video/session IDs,
// assignments) is driven in identical sequential order on both servers,
// and each concurrent worker owns its own campaign and drives its
// sessions in order — so per-campaign state is order-deterministic even
// at workers=8, while the shard locks still see real cross-campaign
// contention under -race.
package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"github.com/eyeorg/eyeorg/internal/wire"
)

// sessionScript freezes one randomized participant before driving, so
// the JSON and binary servers replay the exact same logical history.
type sessionScript struct {
	worker string
	// chunks are the client's buffered flush units: the JSON driver
	// posts every EventBatch individually, the binary driver encodes
	// each chunk as one EYB1 POST.
	chunks    [][]EventBatch
	responses []ResponseBody
	// late is a post-completion flush that must 409 on both protocols
	// (nil when the script doesn't complete the session or skips the
	// probe).
	late []EventBatch
}

// buildScript randomizes one session against a known assignment. The
// profiles mirror the chaos driver's: §4.3 rule triggers, replacement
// batches, ghost videos, abandonment — plus protocol-specific spice:
// combined instruction+engagement bodies (one JSON POST, two wire
// records), sub-millisecond float durations, and tiny negative loads
// that exercise zigzag deltas and the float→Duration truncation parity.
func buildScript(r *rand.Rand, kind, worker string, jr JoinResponse) sessionScript {
	sc := sessionScript{worker: worker}
	profile := r.Intn(8)
	answerUpTo := len(jr.Tests)
	if profile == 7 {
		answerUpTo = r.Intn(len(jr.Tests))
	}
	skipIdx := -1
	if profile == 4 {
		skipIdx = r.Intn(len(jr.Tests))
	}
	var pending []EventBatch
	flush := func() {
		if len(pending) > 0 {
			sc.chunks = append(sc.chunks, pending)
			pending = nil
		}
	}
	first := EventBatch{InstructionMs: 10_000 + r.Float64()*30_000}
	if r.Intn(3) == 0 {
		// Instruction and engagement in one JSON body: the wire side
		// splits it into two records, in the same apply order.
		first = diffBatch(r, profile, jr.Tests[0].VideoID)
		first.InstructionMs = 10_000 + r.Float64()*30_000
	}
	pending = append(pending, first)
	for i, tt := range jr.Tests {
		if i != skipIdx {
			for n := 1 + r.Intn(2); n > 0; n-- { // replacement batches
				pending = append(pending, diffBatch(r, profile, tt.VideoID))
			}
		}
		if r.Intn(16) == 0 { // instrumentation for a video never assigned
			pending = append(pending, diffBatch(r, 0, "ghost-video"))
		}
		if r.Intn(3) == 0 { // randomized flush boundaries
			flush()
		}
	}
	flush()
	for i := 0; i < answerUpTo; i++ {
		sc.responses = append(sc.responses, diffResponse(r, kind, profile, jr.Tests[i]))
	}
	if answerUpTo == len(jr.Tests) && r.Intn(4) == 0 {
		sc.late = []EventBatch{diffBatch(r, 1, jr.Tests[0].VideoID)}
	}
	return sc
}

func diffBatch(r *rand.Rand, profile int, videoID string) EventBatch {
	b := EventBatch{
		VideoID:         videoID,
		LoadMs:          500 + r.Float64()*1500,
		TimeOnVideoMs:   5_000 + r.Float64()*20_000,
		Plays:           1,
		Seeks:           r.Intn(15),
		Pauses:          r.Intn(3),
		WatchedFraction: r.Float64(),
	}
	switch profile {
	case 1: // seek storm
		b.Seeks = 100 + r.Intn(300)
	case 2: // long unexcused absence
		b.OutOfFocusMs = 12_000 + r.Float64()*30_000
	case 3: // long absence excused by a slower delivery
		b.OutOfFocusMs = 12_000 + r.Float64()*10_000
		b.LoadMs = b.OutOfFocusMs + 1_000 + r.Float64()*5_000
	case 6: // adversarial floats: sub-µs precision and a tiny negative
		b.LoadMs = r.Float64() * 1e-3
		b.TimeOnVideoMs = -r.Float64()
		b.OutOfFocusMs = 1234.567891 + r.Float64()
	}
	return b
}

func diffResponse(r *rand.Rand, kind string, profile int, tt AssignedTest) ResponseBody {
	if kind == "ab" {
		choice := []string{"left", "right", "no difference"}[r.Intn(3)]
		if tt.Control {
			choice = "no difference"
			if profile == 5 {
				choice = "right"
			}
		}
		return ResponseBody{TestID: tt.TestID, Choice: choice}
	}
	sub := 800 + r.Float64()*4_000
	return ResponseBody{
		TestID:       tt.TestID,
		SliderMs:     sub + 200,
		HelperMs:     sub - 100,
		SubmittedMs:  sub,
		KeptOriginal: !(tt.Control && profile == 5),
	}
}

// diffDriver executes scripts against one server over either protocol.
// Goroutine-confined: each worker owns one driver per server.
type diffDriver struct {
	base   string
	client *http.Client
	binary bool
	enc    wire.Encoder
	recs   []wire.Record
	buf    []byte
}

func (d *diffDriver) expectJSON(want int, path string, body any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		return err
	}
	resp, err := d.client.Post(d.base+path, "application/json", &buf)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s: status %d, want %d", path, resp.StatusCode, want)
	}
	return nil
}

func (d *diffDriver) join(campaign, worker string) (JoinResponse, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(JoinRequest{
		Campaign: campaign,
		Worker:   Worker{ID: worker, Gender: "f", Country: "IT", Source: "diff"},
		Captcha:  "tok",
	})
	if err != nil {
		return JoinResponse{}, err
	}
	resp, err := d.client.Post(d.base+"/api/v1/sessions", "application/json", &buf)
	if err != nil {
		return JoinResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return JoinResponse{}, fmt.Errorf("join: status %d", resp.StatusCode)
	}
	var jr JoinResponse
	return jr, json.NewDecoder(resp.Body).Decode(&jr)
}

// flushChunk delivers one buffered flush unit: per-batch JSON posts, or
// one EYB1 POST carrying the whole chunk.
func (d *diffDriver) flushChunk(session string, chunk []EventBatch, want int) error {
	path := "/api/v1/sessions/" + session + "/events"
	if !d.binary {
		for _, b := range chunk {
			if err := d.expectJSON(want, path, b); err != nil {
				return err
			}
		}
		return nil
	}
	d.recs = d.recs[:0]
	for _, b := range chunk {
		d.recs = AppendWireRecords(d.recs, b)
	}
	d.buf = d.enc.AppendBatch(d.buf[:0], d.recs)
	resp, err := d.client.Post(d.base+path, wire.ContentType, bytes.NewReader(d.buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("POST %s (binary, %d records): status %d, want %d",
			path, len(d.recs), resp.StatusCode, want)
	}
	if want == http.StatusAccepted {
		var ack struct {
			Records int `json:"records"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			return err
		}
		if ack.Records != len(d.recs) {
			return fmt.Errorf("batch ack counted %d records, sent %d", ack.Records, len(d.recs))
		}
	}
	return nil
}

// runScript drives everything after the join: flush chunks, answers,
// and the post-completion 409 probe.
func (d *diffDriver) runScript(session string, sc *sessionScript) error {
	for _, chunk := range sc.chunks {
		if err := d.flushChunk(session, chunk, http.StatusAccepted); err != nil {
			return err
		}
	}
	for _, resp := range sc.responses {
		if err := d.expectJSON(http.StatusAccepted, "/api/v1/sessions/"+session+"/responses", resp); err != nil {
			return err
		}
	}
	if sc.late != nil {
		if err := d.flushChunk(session, sc.late, http.StatusConflict); err != nil {
			return err
		}
	}
	return nil
}

// joinBoth joins the same worker on both servers and requires identical
// session IDs and assignments — the lockstep the byte-equality claim
// rests on.
func joinBoth(dj, db *diffDriver, campaign, worker string) (JoinResponse, error) {
	jr, err := dj.join(campaign, worker)
	if err != nil {
		return jr, fmt.Errorf("json server: %w", err)
	}
	jrB, err := db.join(campaign, worker)
	if err != nil {
		return jr, fmt.Errorf("binary server: %w", err)
	}
	if !reflect.DeepEqual(jr, jrB) {
		return jr, fmt.Errorf("servers diverged at join %s: %+v vs %+v", worker, jr, jrB)
	}
	return jr, nil
}

// compareCampaign requires byte-identical /results and /analytics for
// one campaign across the two servers.
func compareCampaign(t *testing.T, cJSON, cBin *client, campaign string) {
	t.Helper()
	resJ, resB := rawResults(t, cJSON, campaign), rawResults(t, cBin, campaign)
	if !bytes.Equal(resJ, resB) {
		t.Fatalf("campaign %s /results diverged:\n json:   %s\n binary: %s", campaign, resJ, resB)
	}
	anaJ, anaB := rawAnalytics(t, cJSON, campaign), rawAnalytics(t, cBin, campaign)
	if !bytes.Equal(anaJ, anaB) {
		t.Fatalf("campaign %s /analytics diverged:\n json:   %s\n binary: %s", campaign, anaJ, anaB)
	}
	var res ResultsResponse
	if err := json.Unmarshal(resJ, &res); err != nil {
		t.Fatal(err)
	}
	if res.Participants == 0 {
		t.Fatalf("campaign %s differential run produced no completed sessions — vacuous comparison", campaign)
	}
}

// TestDifferentialBinaryVsJSON is the property suite: randomized
// sessions × workers {1,8} × both campaign kinds × seeds, each worker
// driving its own campaign concurrently on two servers — one ingesting
// per-event JSON, one ingesting EYB1 binary batches. Run under -race in
// CI.
func TestDifferentialBinaryVsJSON(t *testing.T) {
	for _, kind := range []string{"timeline", "ab"} {
		for _, workers := range []int{1, 8} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/workers=%d/seed=%d", kind, workers, seed), func(t *testing.T) {
					cJSON, _ := newClientOpts(t, Options{})
					cBin, _ := newClientOpts(t, Options{})

					// Allocation phase, sequential and identical on both:
					// one campaign per worker, then every join in order.
					campaigns := make([]string, workers)
					for w := range campaigns {
						id, _ := setupCampaign(cJSON, kind, 3)
						idB, _ := setupCampaign(cBin, kind, 3)
						if id != idB {
							t.Fatalf("campaign IDs diverged: %s vs %s", id, idB)
						}
						campaigns[w] = id
					}
					const sessionsPerWorker = 5
					type job struct {
						jr JoinResponse
						sc sessionScript
					}
					jobs := make([][]job, workers)
					for w := 0; w < workers; w++ {
						r := rand.New(rand.NewSource(seed*1000 + int64(w)))
						dj := &diffDriver{base: cJSON.srv.URL, client: &http.Client{}}
						db := &diffDriver{base: cBin.srv.URL, client: &http.Client{}, binary: true}
						for i := 0; i < sessionsPerWorker; i++ {
							worker := fmt.Sprintf("%s-s%d-w%d-i%d", kind, seed, w, i)
							jr, err := joinBoth(dj, db, campaigns[w], worker)
							if err != nil {
								t.Fatal(err)
							}
							jobs[w] = append(jobs[w], job{jr: jr, sc: buildScript(r, kind, worker, jr)})
						}
					}

					// Drive phase: workers run concurrently, each strictly
					// ordered within its own campaign.
					errs := make(chan error, workers)
					var wg sync.WaitGroup
					for w := 0; w < workers; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							dj := &diffDriver{base: cJSON.srv.URL, client: &http.Client{}}
							db := &diffDriver{base: cBin.srv.URL, client: &http.Client{}, binary: true}
							for i := range jobs[w] {
								j := &jobs[w][i]
								if err := dj.runScript(j.jr.Session, &j.sc); err != nil {
									errs <- fmt.Errorf("json worker %d: %w", w, err)
									return
								}
								if err := db.runScript(j.jr.Session, &j.sc); err != nil {
									errs <- fmt.Errorf("binary worker %d: %w", w, err)
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
					for _, campaign := range campaigns {
						compareCampaign(t, cJSON, cBin, campaign)
					}
				})
			}
		}
	}
}

// TestDifferentialCrashReplayMidBatch crashes BOTH persisted servers
// mid-way through one session's flush sequence — between binary batches
// of an in-flight session — reopens them from their journals, requires
// the binary server's pre-crash /results and /analytics to replay
// byte-identically (opBatch records decode back through the same
// pooled decoder), then finishes the interrupted session and the rest
// of the run and holds the two protocols to byte-identical output.
func TestDifferentialCrashReplayMidBatch(t *testing.T) {
	for _, kind := range []string{"timeline", "ab"} {
		t.Run(kind, func(t *testing.T) {
			dirJ, dirB := t.TempDir(), t.TempDir()
			srvJ, cJSON := openPersisted(t, dirJ, Options{})
			srvB, cBin := openPersisted(t, dirB, Options{})
			campaign, _ := setupCampaign(cJSON, kind, 3)
			if idB, _ := setupCampaign(cBin, kind, 3); idB != campaign {
				t.Fatalf("campaign IDs diverged: %s vs %s", campaign, idB)
			}
			r := rand.New(rand.NewSource(99))
			dj := &diffDriver{base: cJSON.srv.URL, client: &http.Client{}}
			db := &diffDriver{base: cBin.srv.URL, client: &http.Client{}, binary: true}

			const nSessions = 6
			const crashAt = 3
			for i := 0; i < nSessions; i++ {
				worker := fmt.Sprintf("%s-crash-%d", kind, i)
				jr, err := joinBoth(dj, db, campaign, worker)
				if err != nil {
					t.Fatal(err)
				}
				sc := buildScript(r, kind, worker, jr)
				if i != crashAt {
					if err := dj.runScript(jr.Session, &sc); err != nil {
						t.Fatal(err)
					}
					if err := db.runScript(jr.Session, &sc); err != nil {
						t.Fatal(err)
					}
					continue
				}

				// Deliver the first flush units only, so the crash lands
				// between batches of this in-flight session.
				half := (len(sc.chunks) + 1) / 2
				for _, chunk := range sc.chunks[:half] {
					if err := dj.flushChunk(jr.Session, chunk, http.StatusAccepted); err != nil {
						t.Fatal(err)
					}
					if err := db.flushChunk(jr.Session, chunk, http.StatusAccepted); err != nil {
						t.Fatal(err)
					}
				}
				preRes, preAna := rawResults(t, cBin, campaign), rawAnalytics(t, cBin, campaign)

				// Crash: abandon both servers without Close. Every journal
				// append was flushed, so recovery sees the full history.
				cJSON.srv.Close()
				cBin.srv.Close()
				abandon(srvJ)
				abandon(srvB)
				var srvJ2, srvB2 *Server
				srvJ2, cJSON = openPersisted(t, dirJ, Options{})
				srvB2, cBin = openPersisted(t, dirB, Options{})
				t.Cleanup(func() { srvJ2.Close(); srvB2.Close() })
				dj.base, db.base = cJSON.srv.URL, cBin.srv.URL

				// Replaying opBatch journal records rebuilds the exact
				// pre-crash bytes.
				if got := rawResults(t, cBin, campaign); !bytes.Equal(preRes, got) {
					t.Fatalf("binary /results diverged across replay:\n before: %s\n after:  %s", preRes, got)
				}
				if got := rawAnalytics(t, cBin, campaign); !bytes.Equal(preAna, got) {
					t.Fatalf("binary /analytics diverged across replay:\n before: %s\n after:  %s", preAna, got)
				}

				// The interrupted session finishes post-replay.
				for _, chunk := range sc.chunks[half:] {
					if err := dj.flushChunk(jr.Session, chunk, http.StatusAccepted); err != nil {
						t.Fatal(err)
					}
					if err := db.flushChunk(jr.Session, chunk, http.StatusAccepted); err != nil {
						t.Fatal(err)
					}
				}
				rest := sessionScript{responses: sc.responses, late: sc.late}
				if err := dj.runScript(jr.Session, &rest); err != nil {
					t.Fatal(err)
				}
				if err := db.runScript(jr.Session, &rest); err != nil {
					t.Fatal(err)
				}
			}
			compareCampaign(t, cJSON, cBin, campaign)
		})
	}
}

// TestDurabilityModeEquivalence: durability tuning may move when bytes
// reach disk, never what the platform computes. The same randomized
// session scripts — sent per event as JSON, or per flush unit as EYB1
// batches — must give byte-identical /results and /analytics with and
// without fsync, and each mode's server, reopened over its data
// directory, must serve the same bytes again.
func TestDurabilityModeEquivalence(t *testing.T) {
	modes := []struct {
		name   string
		binary bool
		opts   Options
	}{
		{"wal", false, Options{}},
		{"fsync", false, Options{Fsync: true}},
		// The wire protocol changes how events travel and land in the
		// journal (one batch record per flush unit), never what the
		// platform computes.
		{"wal-binary", true, Options{}},
		{"fsync-binary", true, Options{Fsync: true}},
	}
	for _, kind := range []string{"timeline", "ab"} {
		t.Run(kind, func(t *testing.T) {
			var wantRes, wantAna []byte
			for _, m := range modes {
				dir := t.TempDir()
				srv, c := openPersisted(t, dir, m.opts)
				campaign, _ := setupCampaign(c, kind, 3)
				d := &diffDriver{base: c.srv.URL, client: &http.Client{}, binary: m.binary}
				r := rand.New(rand.NewSource(7))
				for i := 0; i < 8; i++ {
					worker := fmt.Sprintf("%s-mode-%d", kind, i)
					jr, err := d.join(campaign, worker)
					if err != nil {
						t.Fatalf("%s: %v", m.name, err)
					}
					sc := buildScript(r, kind, worker, jr)
					if err := d.runScript(jr.Session, &sc); err != nil {
						t.Fatalf("%s: %v", m.name, err)
					}
				}
				res, ana := rawResults(t, c, campaign), rawAnalytics(t, c, campaign)
				c.srv.Close()
				if err := srv.Close(); err != nil {
					t.Fatalf("%s: close: %v", m.name, err)
				}

				srv2, c2 := openPersisted(t, dir, m.opts)
				if got := rawResults(t, c2, campaign); !bytes.Equal(got, res) {
					t.Errorf("%s: reopen changed /results:\n before: %s\n after:  %s", m.name, res, got)
				}
				if got := rawAnalytics(t, c2, campaign); !bytes.Equal(got, ana) {
					t.Errorf("%s: reopen changed /analytics:\n before: %s\n after:  %s", m.name, ana, got)
				}
				if err := srv2.Close(); err != nil {
					t.Fatalf("%s: close after reopen: %v", m.name, err)
				}

				if wantRes == nil {
					var parsed ResultsResponse
					if err := json.Unmarshal(res, &parsed); err != nil || parsed.Participants == 0 {
						t.Fatalf("%s: no completed session to compare (%v): %s", m.name, err, res)
					}
					wantRes, wantAna = res, ana
					continue
				}
				if !bytes.Equal(res, wantRes) {
					t.Errorf("%s: /results diverges from %s:\n %s\n %s", m.name, modes[0].name, res, wantRes)
				}
				if !bytes.Equal(ana, wantAna) {
					t.Errorf("%s: /analytics diverges from %s", m.name, modes[0].name)
				}
			}
		})
	}
}
