// Frozen session records: what a completed session still has to answer
// — a late request, GET /sessions/{id}/tests, the next snapshot or
// export — as one varint record on internal/wire's primitives. Records
// sit back to back in their campaign's arena (campaignState.arena) and
// travel inside state documents as those bytes.
//
// Layout (unsigned varints unless noted; a string is its length, then
// its bytes):
//
//	worker   id, gender, country, source
//	tests    count, then count × test:
//	  flags  1 control · 2 kind follows · 4 video ID follows ·
//	         8 the test ID is stored whole
//	  video  index into the campaign's Videos, or under flag 4 the ID
//	  kind   under flag 2 only: a kind other than the campaign's
//	  test   the test ID less its session-ID prefix, or under flag 8 whole
//	answers  count, then count × answer:
//	  test<<1 | control failed       — test indexes the tests above
//	  zigzag submitted ns, or where the test's kind is "ab" the choice
//	final    provisional, final (§4.3 reasons), answered, zigzag actions,
//	         controls, controls failed
//
// The encoding is total: a video outside the campaign, a foreign kind
// or a test ID without the prefix each cost their literal, never an
// error, so completion has no failure path. Decoding checks every
// index and length, because a snapshot is read from outside the
// process.
package platform

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/survey"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// Per-test flag bits of a frozen record.
const (
	frozenControl = 1 << iota
	frozenKind
	frozenVideo
	frozenWholeID
	frozenFlagsEnd
)

// errFrozen is what every decode failure wraps.
var errFrozen = errors.New("corrupt session record")

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendFrozen appends the record of sess, a completed session of c, to
// dst. Caller holds c's shard lock (it reads c.Videos).
func appendFrozen(dst []byte, c *campaignState, sess *sessionState) []byte {
	for _, field := range [...]string{sess.Worker.ID, sess.Worker.Gender, sess.Worker.Country, sess.Worker.Source} {
		dst = appendString(dst, field)
	}
	dst = binary.AppendUvarint(dst, uint64(len(sess.Assignment)))
	for i := range sess.Assignment {
		t := &sess.Assignment[i]
		video := slices.Index(c.Videos, t.VideoID)
		testID, stripped := strings.CutPrefix(t.TestID, sess.ID)
		var flags uint64
		if t.Control {
			flags |= frozenControl
		}
		if t.Kind != c.Kind {
			flags |= frozenKind
		}
		if video < 0 {
			flags |= frozenVideo
		}
		if !stripped {
			flags |= frozenWholeID
		}
		dst = binary.AppendUvarint(dst, flags)
		if video < 0 {
			dst = appendString(dst, t.VideoID)
		} else {
			dst = binary.AppendUvarint(dst, uint64(video))
		}
		if t.Kind != c.Kind {
			dst = appendString(dst, t.Kind)
		}
		dst = appendString(dst, testID)
	}
	dst = binary.AppendUvarint(dst, uint64(len(sess.answers)))
	for _, a := range sess.answers {
		head := uint64(a.Test) << 1
		if a.ControlFailed {
			head |= 1
		}
		dst = binary.AppendUvarint(dst, head)
		if sess.Assignment[a.Test].Kind == "ab" {
			dst = binary.AppendUvarint(dst, uint64(a.Choice))
		} else {
			dst = wire.AppendZigzag(dst, int64(a.Submitted))
		}
	}
	f := &sess.final
	dst = binary.AppendUvarint(dst, uint64(f.Provisional))
	dst = binary.AppendUvarint(dst, uint64(f.Final))
	dst = binary.AppendUvarint(dst, uint64(f.Answered))
	dst = wire.AppendZigzag(dst, int64(f.Actions))
	dst = binary.AppendUvarint(dst, uint64(f.Controls))
	return binary.AppendUvarint(dst, uint64(f.ControlsFailed))
}

// decodeFrozen reads the record of session id back as a sessionState in
// its completed form (final set, the tracker empty). The state is the
// caller's own: nothing keeps it, and it aliases neither rec nor the
// arena.
// Caller holds c's shard lock, at least shared (it reads c.Videos, and
// rec is usually a slice of c.arena).
func decodeFrozen(c *campaignState, id string, rec []byte) (*sessionState, error) {
	p := wire.Parser{Rest: rec}
	str := func() string { return string(p.Bytes(len(p.Rest))) }
	sess := &sessionState{ID: id, campaign: c}
	sess.Worker = Worker{ID: str(), Gender: str(), Country: str(), Source: str()}

	// A test is at least three bytes and an answer two, so a count past
	// what is left of the record is corrupt, not a reason to allocate.
	n := p.Uvarint()
	if n > uint64(len(p.Rest)) {
		return nil, fmt.Errorf("%w: %d tests in %d bytes", errFrozen, n, len(p.Rest))
	}
	sess.Assignment = make([]AssignedTest, n)
	for i := range sess.Assignment {
		t := &sess.Assignment[i]
		flags := p.Uvarint()
		if p.Err != nil {
			break
		}
		if flags >= frozenFlagsEnd {
			return nil, fmt.Errorf("%w: test %d has flags %#x", errFrozen, i, flags)
		}
		t.Control = flags&frozenControl != 0
		if flags&frozenVideo != 0 {
			t.VideoID = str()
		} else if video := p.Uvarint(); video < uint64(len(c.Videos)) {
			t.VideoID = c.Videos[video]
		} else if p.Err == nil {
			return nil, fmt.Errorf("%w: test %d names video %d of %d", errFrozen, i, video, len(c.Videos))
		}
		t.Kind = c.Kind
		if flags&frozenKind != 0 {
			t.Kind = str()
		}
		t.TestID = str()
		if flags&frozenWholeID == 0 {
			t.TestID = id + t.TestID
		}
	}

	n = p.Uvarint()
	if n > uint64(len(p.Rest)) {
		return nil, fmt.Errorf("%w: %d answers in %d bytes", errFrozen, n, len(p.Rest))
	}
	sess.answers = make([]answer, n)
	for i := range sess.answers {
		head := p.Uvarint()
		if p.Err != nil {
			break
		}
		if head>>1 >= uint64(len(sess.Assignment)) {
			return nil, fmt.Errorf("%w: answer %d is to test %d of %d", errFrozen, i, head>>1, len(sess.Assignment))
		}
		a := &sess.answers[i]
		a.Test, a.ControlFailed = int(head>>1), head&1 != 0
		if sess.Assignment[a.Test].Kind == "ab" {
			a.Choice = survey.ABChoice(p.Uvarint())
		} else {
			a.Submitted = time.Duration(p.Zigzag())
		}
	}

	provisional, final := p.Uvarint(), p.Uvarint()
	sess.final = quality.Snapshot{
		Provisional:    filtering.Reason(provisional),
		Final:          filtering.Reason(final),
		Completed:      true,
		Answered:       int(p.Uvarint()),
		Actions:        int(p.Zigzag()),
		Controls:       int(p.Uvarint()),
		ControlsFailed: int(p.Uvarint()),
	}
	switch {
	case p.Err != nil:
		return nil, fmt.Errorf("%w: it ends early", errFrozen)
	case len(p.Rest) != 0:
		return nil, fmt.Errorf("%w: %d trailing bytes", errFrozen, len(p.Rest))
	case max(provisional, final) > uint64(filtering.DropControl):
		// Reason.String indexes a table by it.
		return nil, fmt.Errorf("%w: verdict %d/%d is no §4.3 reason", errFrozen, provisional, final)
	}
	return sess, nil
}
