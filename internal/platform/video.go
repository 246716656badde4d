// Conditional and video replies: the If-None-Match matching every ETag
// the API serves goes through, and GET /videos/{id} from the blob store —
// a full body, a 304 and one satisfiable single range answered here, and
// anything else through http.ServeContent.
package platform

import (
	"bytes"
	"io"
	"net/http"
	"net/textproto"
	"strconv"
	"strings"
	"time"

	"github.com/eyeorg/eyeorg/internal/platform/state"
)

// etagMatches reports whether an If-None-Match header names tag. The
// header is "*" or a list of entity tags separated by commas and
// optional whitespace, read as http.ServeContent reads it, so the video
// handler's own 304 and ServeContent's agree on every header: the walk
// stops at the first element that is not a quoted tag, and a weak
// validator matches by its tag (RFC 9110's weak comparison —
// byte-identical cached bodies are what the tag certifies here).
func etagMatches(header, tag string) bool {
	if tag == "" {
		return false
	}
	for {
		header = strings.TrimLeft(header, " \t\r\n")
		switch {
		case header == "":
			return false
		case header[0] == ',':
			header = header[1:]
			continue
		case header[0] == '*':
			return true
		}
		cand, rest, ok := scanETag(header)
		if !ok {
			return false
		}
		if cand == tag {
			return true
		}
		header = rest
	}
}

// scanETag cuts the entity tag, "…" or W/"…", that s starts with and
// returns it without its W/ and the rest of s; ok is false when s does
// not start with one. The characters allowed between the quotes are
// RFC 9110's etagc.
func scanETag(s string) (tag, rest string, ok bool) {
	s = strings.TrimPrefix(s, "W/")
	if len(s) < 2 || s[0] != '"' {
		return "", "", false
	}
	for i := 1; i < len(s); i++ {
		switch c := s[i]; {
		case c == '"':
			return s[:i+1], s[i+1:], true
		case c != 0x21 && (c < 0x23 || c > 0x7e) && c < 0x80:
			return "", "", false
		}
	}
	return "", "", false
}

// writeConditional answers a GET whose validator is known: 304 without
// a body when If-None-Match names the tag (body is not read then), the
// full JSON body otherwise. tag is the ETag header's value, which rides
// on both.
func writeConditional(w http.ResponseWriter, r *http.Request, tag []string, body []byte) {
	w.Header()["Etag"] = tag
	if etagMatches(r.Header.Get("If-None-Match"), tag[0]) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, http.StatusOK, body)
}

func (s *Server) handleGetVideo(w *scratch, r *http.Request) {
	v, banned, ok := s.state.Video(w.id)
	if !ok {
		writeErr(w, http.StatusNotFound, state.ErrNoVideo.Error())
		return
	}
	if banned {
		writeErr(w, http.StatusGone, "video banned")
		return
	}
	// The payload is immutable and content-addressed, so the validator
	// is the strong content hash and clients may cache forever. If-Match
	// is evaluated before If-None-Match (RFC 9110 §13.2.2), so a request
	// that carries it goes to http.ServeContent, which does both.
	h := w.Header()
	h["Etag"] = v.ETagValue
	h["Cache-Control"] = videoCacheControl
	h["Accept-Ranges"] = videoAcceptRanges
	ifMatch := r.Header.Get("If-Match") != ""
	if !ifMatch && etagMatches(r.Header.Get("If-None-Match"), v.ETag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h["Content-Type"] = videoContentType
	// One blob lookup; a file-tier read counts once, as a mapped hit or a
	// miss that opened the file.
	b, rc, err := s.blobs.Serve(v.Hash)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err.Error())
		return
	}
	if rc != nil {
		// A file-tier blob that could not be mapped arrives as the
		// *os.File itself, so on a real socket a full body is
		// kernel-side sendfile.
		defer rc.Close()
		serveContent(w, r, rc)
		return
	}
	// Resident bytes (memory tier, or a mapped file-tier blob) answer a
	// full body or one satisfiable range here, with no seeker; anything
	// else (If-Match, If-Range, several ranges, 416) is serveContent's.
	rng := r.Header.Get("Range")
	start, end, single := singleRange(rng, len(b))
	switch {
	case ifMatch || rng != "" && (!single || r.Header.Get("If-Range") != ""):
		serveContent(w, r, bytes.NewReader(b))
		return
	case rng == "":
		h["Content-Length"] = v.LengthValue
		w.WriteHeader(http.StatusOK)
	default:
		h["Content-Range"], h["Content-Length"] = rangeValues(start, end, len(b))
		w.WriteHeader(http.StatusPartialContent)
		b = b[start:end]
	}
	if r.Method != http.MethodHead {
		_, _ = w.Write(b)
	}
}

// serveContent answers a video request through http.ServeContent, after
// taking every suffix range of zero length ("bytes=-0") out of its Range
// header. Such a range selects no byte (RFC 9110 §14.1.1), but
// ServeContent answers it with a range that ends before it starts. A
// header left with no range asks for pastEnd, which ServeContent
// answers, once If-Match and If-Range allow, with 416 and Content-Range
// bytes */size.
func serveContent(w http.ResponseWriter, r *http.Request, content io.ReadSeeker) {
	if rng, ok := dropEmptySuffixes(r.Header.Get("Range")); ok {
		r = r.Clone(r.Context())
		r.Header.Set("Range", rng)
	}
	http.ServeContent(w, r, "", time.Time{}, content)
}

// pastEnd is a Range header no body can satisfy: its one range starts at
// the largest offset ServeContent parses.
const pastEnd = "bytes=9223372036854775807-"

// dropEmptySuffixes returns header without its zero-length suffix
// ranges, each spec read as http.ServeContent reads it, and whether it
// had one.
func dropEmptySuffixes(header string) (string, bool) {
	specs, ok := strings.CutPrefix(header, "bytes=")
	if !ok {
		return header, false
	}
	var kept []string
	dropped := false
	for _, spec := range strings.Split(specs, ",") {
		first, last, _ := strings.Cut(textproto.TrimString(spec), "-")
		last = textproto.TrimString(last)
		n, err := strconv.ParseInt(last, 10, 64)
		switch {
		case first == "" && err == nil && n == 0 && last[0] != '-':
			dropped = true
		case textproto.TrimString(spec) != "":
			kept = append(kept, spec)
		}
	}
	switch {
	case !dropped:
		return header, false
	case len(kept) == 0:
		return pastEnd, true
	}
	return "bytes=" + strings.Join(kept, ","), true
}

// singleRange parses a Range header that names one byte range of a
// size-byte body in its plainest form, "bytes=a-b", "bytes=a-" or
// "bytes=-n" with digits only, and returns the span [start, end) it
// selects, clamped to the body as http.ServeContent clamps it. ok is
// false for any other header (several ranges, whitespace, a sign, a
// number past int64) and for a range that selects nothing: one starting
// past the end, a-b with b < a, "-0", or any range of an empty body.
// Declining is always safe; serveContent answers those.
func singleRange(header string, size int) (start, end int, ok bool) {
	spec, isBytes := strings.CutPrefix(header, "bytes=")
	first, last, isRange := strings.Cut(spec, "-")
	if !isBytes || !isRange || size == 0 {
		return 0, 0, false
	}
	// Base-10 ParseUint takes digits only: no sign, space or comma.
	n := uint64(size)
	if first == "" {
		suffix, err := strconv.ParseUint(last, 10, 63)
		if err != nil || suffix == 0 {
			return 0, 0, false
		}
		return int(n - min(suffix, n)), size, true
	}
	a, err := strconv.ParseUint(first, 10, 63)
	if err != nil || a >= n {
		return 0, 0, false
	}
	if last == "" {
		return int(a), size, true
	}
	z, err := strconv.ParseUint(last, 10, 63)
	if err != nil || z < a {
		return 0, 0, false
	}
	return int(a), int(min(z, n-1) + 1), true
}

// rangeValues returns the Content-Range and Content-Length values of the
// 206 that carries bytes [start, end) of a size-byte body, exactly as
// http.ServeContent renders them. Both texts are cut from one string and
// both values from one array, each with no spare capacity: two heap
// objects per reply.
func rangeValues(start, end, size int) (contentRange, contentLength []string) {
	var buf [96]byte
	p := strconv.AppendInt(append(buf[:0], "bytes "...), int64(start), 10)
	p = strconv.AppendInt(append(p, '-'), int64(end-1), 10)
	p = strconv.AppendInt(append(p, '/'), int64(size), 10)
	cut := len(p)
	text := string(strconv.AppendInt(p, int64(end-start), 10))
	values := new([2]string)
	values[0], values[1] = text[:cut], text[cut:]
	return values[0:1:1], values[1:2:2]
}
