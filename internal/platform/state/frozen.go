// Frozen session records: what a completed session still has to answer
// — a late request, GET /sessions/{id}/tests, the next snapshot or
// export — as one varint record on internal/wire's primitives. Each
// record, behind its session ID, sits in one checked frame of its
// campaign's records (Campaign.records) until a snapshot spills it to
// the campaign's frozen file (spill.go).
//
// Layout (unsigned varints unless noted; a string is its length, then
// its bytes):
//
//	worker   id, gender, country, source
//	videos   TestsPerSession indices into the campaign's Videos: the
//	         videos the session's join drew, the control's last
//	answers  count, then count × answer:
//	  test<<1 | control failed       — test indexes the assignment
//	  zigzag submitted ns, or in an "ab" campaign the choice
//	final    provisional, final (§4.3 reasons), answered, zigzag actions,
//	         controls, controls failed
//
// The videos are all a record keeps of the assignment: its tests are
// the campaign's kind and their IDs the ones the join minted, so decoding
// builds them again (assignment). Every session record and section is
// refused unless it draws its videos from its campaign (Campaign.draw),
// so completion has no failure path. Decoding checks every index and
// length, because a campaign's files are read from outside the process.
//
// A completed session's /analytics row is rendered from its record alone
// (appendRowOf), in place: the first poll or snapshot after the session
// completed renders it (catchUpRows), and Recover renders each spilled
// one again to check the rows file.
package state

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"time"
	"unsafe"

	"github.com/eyeorg/eyeorg/internal/filtering"
	"github.com/eyeorg/eyeorg/internal/quality"
	"github.com/eyeorg/eyeorg/internal/response"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// errFrozen is what every decode failure wraps.
var errFrozen = errors.New("corrupt session record")

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// appendFrozen appends the record of sess, a completed session of c, to
// dst: each of its videos is one c lists, as every session's is. Caller
// holds c's shard lock (it reads c.Videos).
func appendFrozen(dst []byte, c *Campaign, sess *Session) []byte {
	for _, field := range [...]string{sess.Worker.ID, sess.Worker.Gender, sess.Worker.Country, sess.Worker.Source} {
		dst = appendString(dst, field)
	}
	for i := range sess.Assignment {
		dst = binary.AppendUvarint(dst, uint64(slices.Index(c.Videos, sess.Assignment[i].VideoID)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(sess.answers)))
	for _, a := range sess.answers {
		head := uint64(a.Test) << 1
		if a.ControlFailed {
			head |= 1
		}
		dst = binary.AppendUvarint(dst, head)
		if c.Kind == "ab" {
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

// decodeFrozen reads the record of session id back as a Session in
// its completed form (final set, the tracker empty). The state is the
// caller's own: nothing keeps it, and it aliases neither rec nor the
// records.
// Caller holds c's shard lock, at least shared (it reads c.Videos, and
// rec may be a slice of c.records' tail).
func decodeFrozen(c *Campaign, id string, rec []byte) (*Session, error) {
	p := wire.Parser{Rest: rec}
	str := func() string { return string(p.Bytes(len(p.Rest))) }
	sess := &Session{ID: id, Campaign: c}
	sess.Worker = Worker{ID: str(), Gender: str(), Country: str(), Source: str()}

	var drawn [TestsPerSession]string
	for k := range drawn {
		video := p.Uvarint()
		if p.Err != nil {
			break
		}
		if video >= uint64(len(c.Videos)) {
			return nil, fmt.Errorf("%w: test %d names video %d of %d", errFrozen, k, video, len(c.Videos))
		}
		drawn[k] = c.Videos[video]
	}

	// An answer is at least two bytes, so a count past what is left of the
	// record is corrupt, not a reason to allocate.
	n := p.Uvarint()
	if n > uint64(len(p.Rest)) {
		return nil, fmt.Errorf("%w: %d answers in %d bytes", errFrozen, n, len(p.Rest))
	}
	sess.answers = make([]answer, n)
	for i := range sess.answers {
		head := p.Uvarint()
		if p.Err != nil {
			break
		}
		if head>>1 >= TestsPerSession {
			return nil, fmt.Errorf("%w: answer %d is to test %d of %d", errFrozen, i, head>>1, TestsPerSession)
		}
		a := &sess.answers[i]
		a.Test, a.ControlFailed = int(head>>1), head&1 != 0
		if c.Kind == "ab" {
			a.Choice = response.ABChoice(p.Uvarint())
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
	sess.Assignment = assignment(id, c.Kind, &drawn)
	return sess, nil
}

// appendRowOf appends the /analytics row of completed session id, whose
// frozen record is rec, to dst: the row decodeFrozen(c, id, rec).verdict()
// renders (appendRow), read from rec's bytes in place, with no session
// built and nothing allocated. It reads only what the row holds — the
// worker's ID and the final standing — and steps over the rest, which
// the campaign's kind does not change (an A/B choice and a zigzag are
// both one varint). It reports false, whatever it appended, for a record
// it cannot walk to its end or whose verdict names no §4.3 rule; on a
// record decodeFrozen refuses for any other reason it renders a row that
// nothing reads.
func appendRowOf(dst []byte, id string, rec []byte) ([]byte, bool) {
	p := wire.Parser{Rest: rec}
	worker := p.Bytes(len(p.Rest))
	for range 3 { // gender, country, source
		p.Bytes(len(p.Rest))
	}
	for range TestsPerSession { // the videos
		p.Uvarint()
	}
	for n := p.Uvarint(); n > 0 && p.Err == nil; n-- {
		p.Uvarint() // test<<1 | control failed
		p.Uvarint() // the submitted time or the choice
	}
	p.Uvarint() // provisional
	final := p.Uvarint()
	answered := p.Uvarint()
	actions := p.Zigzag()
	p.Uvarint() // controls
	failed := p.Uvarint()
	if p.Err != nil || len(p.Rest) != 0 || final > uint64(filtering.DropControl) {
		return dst, false
	}
	v := ParticipantVerdict{
		Session:        id,
		Worker:         unsafe.String(unsafe.SliceData(worker), len(worker)),
		Completed:      true,
		Verdict:        filtering.Reason(final).String(),
		Answered:       int(answered),
		Actions:        int(actions),
		ControlsFailed: int(failed),
	}
	return v.appendRow(dst), true
}
