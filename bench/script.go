package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"
	"sort"
	"strconv"
	"time"

	"github.com/eyeorg/eyeorg/internal/crowd"
	"github.com/eyeorg/eyeorg/internal/metrics"
	"github.com/eyeorg/eyeorg/internal/platform"
	"github.com/eyeorg/eyeorg/internal/rng"
	"github.com/eyeorg/eyeorg/internal/sitegen"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/video"
	"github.com/eyeorg/eyeorg/internal/vision"
	"github.com/eyeorg/eyeorg/internal/webpeg"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// The script is everything the driver will send, made from the seed
// before the clock starts. The server never sees the seed: it sees
// requests. Only IDs the server mints (campaign, video, session, test)
// are filled in later, by bind once the campaign is seeded and inside
// the timed loop for the per-session ones.

const (
	crowdVideos   = 8   // webpeg captures per crowd campaign
	crowdPersonas = 256 // distinct simulated participants; sessions cycle through them
	// corpusSeed fixes the site corpus the crowd's videos are captured
	// from. The videos are the data set, the seed draws the crowd: with a
	// corpus per seed, bytes per session and the cost of a set-up differed
	// by a quarter between seeds, which is input, not measurement.
	corpusSeed = 1
)

// asset is one video the driver uploads and later checks replies against.
type asset struct {
	payload []byte
	etag    string // the strong validator the server must mint: quoted SHA-256 of payload
	id      string // server-minted, set by bind
}

// answer is one persona's pre-computed interaction with one video, as
// the plain or the control question.
type answer struct {
	batch platform.EventBatch   // engagement instrumentation (VideoID set by bind)
	reply platform.ResponseBody // TestID filled per session
	// Bound forms: the JSON events body, the JSON response body after the
	// test ID (replyHead comes before it), and the same instrumentation
	// as a wire record.
	eventsJSON []byte
	replyTail  []byte
	record     wire.Record
}

// replyHead is how every response body starts: the test ID is the only
// per-session field, and ResponseBody marshals it first.
const replyHead = `{"test_id":"`

// persona is one simulated participant: who they say they are and what
// they would do on every (video, control?) the server might assign.
type persona struct {
	gender, country string
	instruction     platform.EventBatch
	instructionJSON []byte
	instructionRec  wire.Record
	answers         [][2]answer // [video][0 plain, 1 control]
}

// answerTo is the persona's interaction with video vi, as the plain or
// the control question.
func (p *persona) answerTo(vi int, control bool) *answer {
	if control {
		return &p.answers[vi][1]
	}
	return &p.answers[vi][0]
}

// getKind is how a video-delivery request asks for its video.
type getKind uint8

const (
	getFull        getKind = iota // whole body, 200
	getConditional                // If-None-Match with the right tag, 304
	getRange                      // last rangeTail bytes, 206
)

// rangeTail is the suffix a getRange request asks for.
const rangeTail = 64 << 10

type getOp struct {
	video int
	kind  getKind
}

type script struct {
	seed     int64
	videos   []asset
	personas []persona
	gets     []getOp // video-delivery only

	campaign  string
	videoIdx  map[string]int // server video ID -> index into videos
	joinHead  []byte         // join body up to the worker ID
	joinTail  [][]byte       // and after it, per persona
	rangeSpec string
}

// genCrowdScript makes the inputs of the participant workloads: videos
// captured by webpeg from the fixed site corpus, and a paid-crowd
// population drawn from the seed with every answer it could be asked for.
func genCrowdScript(seed int64) (*script, error) {
	sc := &script{seed: seed}
	pages := sitegen.Generate(sitegen.Config{Seed: corpusSeed, Sites: crowdVideos, AdShare: 0.5, ComplexityScale: 1})
	type decoded struct {
		v      *video.Video
		curves metrics.PerceptualCurves
	}
	var frames []decoded
	for _, page := range pages {
		capture, err := webpeg.CaptureSite(page, webpeg.Config{Seed: corpusSeed, Loads: 3})
		if err != nil {
			return nil, fmt.Errorf("capturing %s: %w", page.URL, err)
		}
		sc.videos = append(sc.videos, newAsset(video.Encode(capture.Video)))
		// Personas answer from what the server will serve, so decode the
		// encoded payload, not the capture.
		v, err := video.Decode(sc.videos[len(sc.videos)-1].payload)
		if err != nil {
			return nil, fmt.Errorf("decoding capture of %s: %w", page.URL, err)
		}
		frames = append(frames, decoded{v, metrics.Curves(v, nil)})
	}
	pop := crowd.NewPopulation(rng.New(seed), crowd.PopulationConfig{Class: crowd.Paid, N: crowdPersonas})
	for _, p := range pop {
		per := persona{
			gender:      p.Gender,
			country:     p.Country,
			instruction: platform.EventBatch{InstructionMs: ms(p.InstructionTime())},
			answers:     make([][2]answer, len(frames)),
		}
		for vi, f := range frames {
			for ci, control := range []bool{false, true} {
				test := &survey.TimelineTest{Video: f.v, Control: control}
				per.answers[vi][ci] = newAnswer(p.AnswerTimeline(test, f.curves))
			}
		}
		sc.personas = append(sc.personas, per)
	}
	return sc, nil
}

func newAsset(payload []byte) asset {
	sum := sha256.Sum256(payload)
	return asset{payload: payload, etag: `"` + hex.EncodeToString(sum[:]) + `"`}
}

func newAnswer(r *survey.TimelineResponse) answer {
	tr := r.Trace
	return answer{
		batch: platform.EventBatch{
			LoadMs:          ms(tr.LoadTime),
			TimeOnVideoMs:   ms(tr.TimeOnVideo),
			Plays:           tr.Plays,
			Pauses:          tr.Pauses,
			Seeks:           tr.Seeks,
			WatchedFraction: tr.WatchedFraction,
			OutOfFocusMs:    ms(tr.OutOfFocus),
		},
		reply: platform.ResponseBody{
			SliderMs:       ms(r.Slider),
			HelperMs:       ms(r.Helper),
			SubmittedMs:    ms(r.Submitted),
			AcceptedHelper: r.AcceptedHelper,
			KeptOriginal:   !r.AcceptedHelper,
		},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// genDeliveryScript makes the inputs of video-delivery: nVideos videos
// of noise frames (run-length coding cannot shrink noise, so each
// encodes to about frames*6.3 KiB) and the whole sequence of GETs, with
// Zipf(1.0) popularity over the videos and a 70/20/10 mix of full,
// conditional and Range requests.
func genDeliveryScript(seed int64, nVideos, frames, gets int) *script {
	sc := &script{seed: seed, rangeSpec: "bytes=-" + strconv.Itoa(rangeTail)}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < nVideos; i++ {
		v := &video.Video{FPS: video.DefaultFPS}
		for f := 0; f < frames; f++ {
			fr := vision.NewFrame()
			for y := 0; y < vision.GridH; y++ {
				for x := 0; x < vision.GridW; x++ {
					fr.Set(x, y, vision.Tile(r.Uint32()>>4))
				}
			}
			v.Frames = append(v.Frames, fr)
		}
		sc.videos = append(sc.videos, newAsset(video.Encode(v)))
	}
	// Popularity rank is a seeded shuffle of upload order, so the hot set
	// is not simply the first (or the last, most recently prewarmed) uploads.
	rank := r.Perm(nVideos)
	cum := make([]float64, nVideos)
	total := 0.0
	for k := range cum {
		total += 1 / float64(k+1)
		cum[k] = total
	}
	sc.gets = make([]getOp, gets)
	for i := range sc.gets {
		k := sort.SearchFloat64s(cum, r.Float64()*total)
		if k >= nVideos {
			k = nVideos - 1
		}
		op := getOp{video: rank[k]}
		switch mix := r.Float64(); {
		case mix < 0.70:
			op.kind = getFull
		case mix < 0.90:
			op.kind = getConditional
		default:
			op.kind = getRange
		}
		sc.gets[i] = op
	}
	return sc
}

// bind fills in what the server minted while the campaign was seeded
// and renders every body the timed loop will send.
func (sc *script) bind(campaign string, videoIDs []string) error {
	if len(videoIDs) != len(sc.videos) {
		return fmt.Errorf("bind: %d video IDs for %d videos", len(videoIDs), len(sc.videos))
	}
	sc.campaign = campaign
	sc.videoIdx = make(map[string]int, len(videoIDs))
	for i, id := range videoIDs {
		sc.videos[i].id = id
		sc.videoIdx[id] = i
	}
	sc.joinHead = []byte(fmt.Sprintf(`{"campaign":%q,"worker":{"id":"`, campaign))
	sc.joinTail = make([][]byte, len(sc.personas))
	for pi := range sc.personas {
		p := &sc.personas[pi]
		sc.joinTail[pi] = []byte(fmt.Sprintf(`","gender":%q,"country":%q,"source":"bench"},"captcha":"bench"}`, p.gender, p.country))
		var err error
		if p.instructionJSON, err = json.Marshal(p.instruction); err != nil {
			return err
		}
		p.instructionRec = platform.AppendWireRecords(nil, p.instruction)[0]
		for vi := range p.answers {
			for ci := range p.answers[vi] {
				a := &p.answers[vi][ci]
				a.batch.VideoID = videoIDs[vi]
				if a.eventsJSON, err = json.Marshal(a.batch); err != nil {
					return err
				}
				a.record = platform.AppendWireRecords(nil, a.batch)[0]
				a.reply.TestID = ""
				full, err := json.Marshal(a.reply)
				if err != nil {
					return err
				}
				if !bytes.HasPrefix(full, []byte(replyHead)) {
					return fmt.Errorf("bind: response body does not start with the test ID: %s", full)
				}
				a.replyTail = full[len(replyHead):]
			}
		}
	}
	return nil
}

// hash digests the unbound script: the videos, every persona's identity
// and answers, and the GET sequence. Equal seeds give equal hashes.
func (sc *script) hash() string {
	h := sha256.New()
	for _, v := range sc.videos {
		writeLen(h, len(v.payload))
		h.Write(v.payload)
	}
	enc := json.NewEncoder(h)
	for _, p := range sc.personas {
		_ = enc.Encode([]any{p.gender, p.country, p.instruction.InstructionMs})
		for _, pair := range p.answers {
			for _, a := range pair {
				b, r := a.batch, a.reply
				b.VideoID, r.TestID = "", ""
				_ = enc.Encode(b)
				_ = enc.Encode(r)
			}
		}
	}
	for _, g := range sc.gets {
		writeLen(h, g.video<<2|int(g.kind))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeLen(h hash.Hash, n int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	h.Write(b[:])
}
