// In-place decoding of the three JSON bodies a participant sends: join,
// events, response. Every participant sends some 16 of them, nearly all
// the plain output of a JSON library, and encoding/json pays a decoder,
// a buffer, a scanner stack and a copy of every string to read each.
//
// The decoders here read the body where readIngest put it and build
// nothing: numbers are parsed from the bytes by strconv, as encoding/json
// parses them, and a video or test ID becomes the session's own string
// for it. They accept a deliberately small language — one flat object
// (join nests its worker) whose keys are the fields' JSON names exactly,
// whose strings are printable ASCII without escapes, and with nothing
// after it but whitespace — and decline everything else, valid or not:
// escapes, non-ASCII, null, nesting, case-folded or unknown keys, wrong
// types. A declined body is decoded by decodeJSON, so what a decoder
// accepts it must decode to exactly the struct decodeJSON would (the same
// values, duplicate keys last-wins), and it never reports an error of its
// own. FuzzInPlaceJSONDifferential holds both halves of that.
package platform

import (
	"bytes"
	"strconv"
	"unsafe"
)

// flat reads the members of a JSON object from b, in place. The first
// thing it does not recognise sets bad, which every later step keeps.
type flat struct {
	b   []byte
	i   int
	bad bool
}

func (f *flat) space() {
	for f.i < len(f.b) {
		switch f.b[f.i] {
		case ' ', '\t', '\n', '\r':
			f.i++
		default:
			return
		}
	}
}

// eat consumes c if it is next.
func (f *flat) eat(c byte) bool {
	if f.i < len(f.b) && f.b[f.i] == c {
		f.i++
		return true
	}
	return false
}

// open consumes the brace an object starts with.
func (f *flat) open() {
	f.space()
	if !f.eat('{') {
		f.bad = true
	}
}

// next moves to the value of the object's next member and returns its
// key; seen is how many members came before. ok is false once the object
// has closed, and on anything else.
func (f *flat) next(seen int) (key []byte, ok bool) {
	f.space()
	if f.bad || f.eat('}') {
		return nil, false
	}
	if seen > 0 {
		if !f.eat(',') {
			f.bad = true
			return nil, false
		}
		f.space()
	}
	key = f.str()
	f.space()
	if !f.eat(':') {
		f.bad = true
	}
	f.space()
	return key, !f.bad
}

// end reports whether the whole input was one recognised object.
func (f *flat) end() bool {
	f.space()
	return !f.bad && f.i == len(f.b)
}

// str reads a string of printable ASCII, none of it escaped, and returns
// the bytes between its quotes.
func (f *flat) str() []byte {
	if !f.eat('"') {
		f.bad = true
		return nil
	}
	start := f.i
	for ; f.i < len(f.b); f.i++ {
		switch c := f.b[f.i]; {
		case c == '"':
			f.i++
			return f.b[start : f.i-1]
		case c < ' ', c > '~', c == '\\':
			f.bad = true
			return nil
		}
	}
	f.bad = true
	return nil
}

func (f *flat) digits() {
	start := f.i
	for f.i < len(f.b) && f.b[f.i] >= '0' && f.b[f.i] <= '9' {
		f.i++
	}
	if f.i == start {
		f.bad = true
	}
}

// number reads one literal of JSON's number grammar, which is narrower
// than what strconv takes.
func (f *flat) number() []byte {
	start := f.i
	f.eat('-')
	if !f.eat('0') {
		f.digits()
	}
	if f.eat('.') {
		f.digits()
	}
	if f.eat('e') || f.eat('E') {
		if !f.eat('+') {
			f.eat('-')
		}
		f.digits()
	}
	if f.bad {
		return nil
	}
	return f.b[start:f.i]
}

// float and integer parse a number as encoding/json does for a float64
// and an int field, out-of-range and 1.0-for-an-int refusals included.
func (f *flat) float() float64 {
	v, err := strconv.ParseFloat(string(f.number()), 64)
	if err != nil {
		f.bad = true
	}
	return v
}

func (f *flat) integer() int {
	v, err := strconv.ParseInt(string(f.number()), 10, strconv.IntSize)
	if err != nil {
		f.bad = true
	}
	return int(v)
}

func (f *flat) boolean() bool {
	rest := f.b[f.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		f.i += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		f.i += len("false")
	default:
		f.bad = true
	}
	return false
}

// own returns the session's own string for id when id is a video ID
// (else a test ID) of its assignment, so that decoding it copies nothing
// and keeping it pins nothing new; any other ID is copied.
func own(known []AssignedTest, id []byte, video bool) string {
	for i := range known {
		s := known[i].TestID
		if video {
			s = known[i].VideoID
		}
		if s == string(id) {
			return s
		}
	}
	return string(id)
}

// decodeJoinRequest decodes b into v, or declines and leaves v zero.
// campaign resolves the campaign ID to a string: the server's own for a
// campaign it holds. The worker's four fields, which the session keeps
// and drops together, are cut from one copy; the captcha token, which
// nothing keeps, is not copied at all and reads b (see transient).
func decodeJoinRequest(b []byte, v *JoinRequest, campaign func(id []byte) string) bool {
	*v = JoinRequest{}
	var worker [4][]byte // id, gender, country, source
	f := flat{b: b}
	f.open()
	for n := 0; ; n++ {
		key, ok := f.next(n)
		if !ok {
			break
		}
		switch string(key) {
		case "campaign":
			v.Campaign = campaign(f.str())
		case "worker":
			f.open()
			for m := 0; ; m++ {
				key, ok := f.next(m)
				if !ok {
					break
				}
				switch string(key) {
				case "id":
					worker[0] = f.str()
				case "gender":
					worker[1] = f.str()
				case "country":
					worker[2] = f.str()
				case "source":
					worker[3] = f.str()
				default:
					f.bad = true
				}
			}
		case "captcha":
			v.Captcha = transient(f.str())
		default:
			f.bad = true
		}
	}
	if !f.end() {
		*v = JoinRequest{}
		return false
	}
	var buf [64]byte
	joined := buf[:0]
	for _, field := range worker {
		joined = append(joined, field...)
	}
	all := string(joined)
	cut := func(field []byte) string {
		s := all[:len(field)]
		all = all[len(field):]
		return s
	}
	v.Worker = Worker{ID: cut(worker[0]), Gender: cut(worker[1]), Country: cut(worker[2]), Source: cut(worker[3])}
	return true
}

// transient returns b as a string that shares its bytes, for a value
// read only while b holds the body it came in: the join's captcha, which
// handleJoin checks and the scratch's release drops.
func transient(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// decodeEventBatch decodes b into v, or declines and leaves v zero. A
// video ID the session was assigned (known) decodes to the assignment's
// string, any other to a copy.
func decodeEventBatch(b []byte, v *EventBatch, known []AssignedTest) bool {
	*v = EventBatch{}
	f := flat{b: b}
	f.open()
	for n := 0; ; n++ {
		key, ok := f.next(n)
		if !ok {
			break
		}
		switch string(key) {
		case "video_id":
			v.VideoID = own(known, f.str(), true)
		case "instruction_ms":
			v.InstructionMs = f.float()
		case "load_ms":
			v.LoadMs = f.float()
		case "time_on_video_ms":
			v.TimeOnVideoMs = f.float()
		case "plays":
			v.Plays = f.integer()
		case "pauses":
			v.Pauses = f.integer()
		case "seeks":
			v.Seeks = f.integer()
		case "watched_fraction":
			v.WatchedFraction = f.float()
		case "out_of_focus_ms":
			v.OutOfFocusMs = f.float()
		default:
			f.bad = true
		}
	}
	if !f.end() {
		*v = EventBatch{}
		return false
	}
	return true
}

// decodeResponseBody decodes b into v, or declines and leaves v zero. A
// test ID of the session's assignment (known) decodes to the
// assignment's string and a valid choice to its constant, anything else
// to a copy.
func decodeResponseBody(b []byte, v *ResponseBody, known []AssignedTest) bool {
	*v = ResponseBody{}
	f := flat{b: b}
	f.open()
	for n := 0; ; n++ {
		key, ok := f.next(n)
		if !ok {
			break
		}
		switch string(key) {
		case "test_id":
			v.TestID = own(known, f.str(), false)
		case "slider_ms":
			v.SliderMs = f.float()
		case "helper_ms":
			v.HelperMs = f.float()
		case "submitted_ms":
			v.SubmittedMs = f.float()
		case "accepted_helper":
			v.AcceptedHelper = f.boolean()
		case "kept_original":
			v.KeptOriginal = f.boolean()
		case "choice":
			switch choice := f.str(); string(choice) {
			case "left":
				v.Choice = "left"
			case "right":
				v.Choice = "right"
			case "no difference":
				v.Choice = "no difference"
			default:
				v.Choice = string(choice)
			}
		default:
			f.bad = true
		}
	}
	if !f.end() {
		*v = ResponseBody{}
		return false
	}
	return true
}
