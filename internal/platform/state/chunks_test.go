package state

// The chunked storage of completed sessions: the container against a
// flat slice fed the same appends, and a campaign's pieces, IDs and
// renders across chunk boundaries against the bytes a flat stream holds.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"github.com/eyeorg/eyeorg/internal/store"
)

// TestChunksMatchFlat feeds a chunked container and a flat slice the
// same appends — whole runs padded as appendWhole pads them — and reads
// back every range both ways: at, part and appendTo see the flat bytes,
// a whole run no longer than a chunk lies in one, and a chunk once
// allocated at its full size is never moved.
func TestChunksMatchFlat(t *testing.T) {
	rng := rand.New(rand.NewPCG(56, 4096))
	var c chunks[byte]
	var flat []byte
	homes := map[int]*byte{} // chunk k ≥ 1 → its array
	wholes := 0
	for step := 0; step < 2000; step++ {
		n := rng.IntN(160)
		if step%250 == 7 {
			n = chunkBytes + rng.IntN(chunkBytes) // longer than a chunk
		}
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
		if rng.IntN(2) == 0 {
			c.append(p...)
		} else {
			prev := len(flat)
			start := c.appendWhole(p)
			if start < prev || (prev%chunkBytes == 0 && start != prev) {
				t.Fatalf("step %d: a whole run after byte %d starts at %d", step, prev, start)
			}
			flat = append(flat, make([]byte, start-prev)...)
			if got := c.wholeStart(prev, start+n); got != start {
				t.Fatalf("step %d: the run at %d-%d after %d reads as starting at %d", step, start, start+n, prev, got)
			}
			if n <= chunkBytes && len(c.part(start, start+n)) != n {
				t.Fatalf("step %d: a run of %d B at %d crosses a chunk boundary", step, n, start)
			}
			wholes++
		}
		flat = append(flat, p...)
		if c.len() != len(flat) {
			t.Fatalf("step %d: %d elements held, the flat slice holds %d", step, c.len(), len(flat))
		}
		for k, b := range c.rest {
			if home, ok := homes[k+1]; !ok {
				homes[k+1] = unsafe.SliceData(b)
			} else if home != unsafe.SliceData(b) {
				t.Fatalf("step %d: chunk %d moved", step, k+1)
			}
		}
	}
	if wholes == 0 || len(c.rest) < 16 {
		t.Fatalf("%d whole runs over %d chunks: the walk proves nothing", wholes, len(c.rest)+1)
	}
	for i := 0; i < 4000; i++ {
		from := rng.IntN(len(flat) + 1)
		to := from + rng.IntN(min(len(flat)-from, 3*chunkBytes)+1)
		if got := c.appendTo([]byte("x"), from, to); !bytes.Equal(got[1:], flat[from:to]) {
			t.Fatalf("bytes %d-%d read back other than appended", from, to)
		}
		if from < to {
			p := c.part(from, to)
			if end := from + len(p); len(p) == 0 || !bytes.Equal(p, flat[from:end]) || (end != to && end%chunkBytes != 0) {
				t.Fatalf("part %d-%d is %d B, not the bytes up to the end of the range or of its chunk", from, to, len(p))
			}
		}
		if from < len(flat) && c.at(from) != flat[from] {
			t.Fatalf("byte %d reads back other than appended", from)
		}
	}
	h := c.held()
	if spare := h.Cap - h.Len; h.Len != len(flat) || spare < 0 || spare > chunkBytes+cap(c.rest)*24 {
		t.Fatalf("held %+v for %d B: more than one chunk and the list of chunks spare", h, len(flat))
	}

	var ends chunks[uint32]
	for i := range uint32(3000) {
		ends.append(i * 7)
	}
	for i := range 3000 {
		if ends.at(i) != uint32(i)*7 {
			t.Fatalf("end %d reads back %d", i, ends.at(i))
		}
	}
	if h := ends.held(); h.Len != 4*3000 || h.Cap != 3*chunkBytes+cap(ends.rest)*24 {
		t.Fatalf("3,000 ends hold %+v, want 12,000 B in three chunks", h)
	}
}

// flatPieces returns what campaign c's completed sessions' records and
// rows streams hold, each piece encoded apart from the chunks: the frame
// of the session's ID and frozen record, and its /analytics row and
// comma, back to back as a slice-backed stream appended them. Each
// session is decoded from its record.
func flatPieces(t *testing.T, r *rig, c *Campaign) (pieces [][2][]byte) {
	t.Helper()
	for i := range c.ids.count() {
		sess, err := r.st.Session(c.completedID(i))
		if err != nil {
			t.Fatal(err)
		}
		v := sess.verdict()
		pieces = append(pieces, [2][]byte{
			store.AppendRecord(nil, appendFrozen(appendString(nil, sess.ID), c, sess)),
			append(v.appendRow(nil), ','),
		})
	}
	return pieces
}

// TestCompletedPiecesAcrossChunks: a campaign whose records and rows
// fill several chunks reads each piece back, those that cross a chunk
// boundary included, as the bytes a flat stream holds, once its first
// /analytics render has rendered the rows; that render, whose runs of
// rows cross chunk boundaries in the heap, is the render of the same
// rows read back from the spilled file in one piece; and the files a
// snapshot spills hold the pieces back to back.
func TestCompletedPiecesAcrossChunks(t *testing.T) {
	dir := t.TempDir()
	r := openRig(t, dir, nil)
	campaign, _ := r.campaign("timeline", 4)
	completeN(r, campaign, "across", 150)
	c, _ := r.st.Campaign(campaign)
	pieces := flatPieces(t, r, c)
	inHeap, err := r.analytics(campaign, 20, 80)
	if err != nil {
		t.Fatal(err)
	}
	var crossed [2]int
	var flat [2][]byte
	for i, want := range pieces {
		for k, s := range c.streams() {
			got, err := s.piece(uint32(i), c.spilled)
			if err != nil || !bytes.Equal(got, want[k]) {
				t.Fatalf("%s piece %d reads back %q (%v), want %q", streamExts[k], i, got, err, want[k])
			}
			if start, end := s.size(uint32(i)), s.size(uint32(i+1)); start/chunkBytes != (end-1)/chunkBytes {
				crossed[k]++
			}
			flat[k] = append(flat[k], want[k]...)
		}
	}
	if crossed[0] == 0 || crossed[1] == 0 {
		t.Fatalf("%d record and %d row pieces cross a chunk boundary: the test proves nothing", crossed[0], crossed[1])
	}
	if err := r.snapshot(); err != nil {
		t.Fatal(err)
	}
	if f := c.Footprint(); f.Records.Cap != 0 || f.Rows.Cap != 0 {
		t.Fatalf("the snapshot left records and rows in the heap: %+v", f)
	}
	for k := range flat {
		got, err := os.ReadFile(filepath.Join(dir, fileName(campaign, k)))
		if err != nil || !bytes.Equal(got, flat[k]) {
			t.Fatalf("%s holds %d B (%v), not the %d B of its pieces back to back", fileName(campaign, k), len(got), err, len(flat[k]))
		}
	}
	spilled, err := r.analytics(campaign, 20, 80)
	if err != nil || !bytes.Equal(spilled, inHeap) {
		t.Fatalf("/analytics from the spilled rows (%v):\n%s\nfrom the rows in the heap:\n%s", err, spilled, inHeap)
	}
}

// TestCompletedIDNeverSplit: completed session IDs of 100 B, which do
// not divide a chunk, each lie in one chunk of the arena, the arena
// padding a chunk's end rather than splitting one; an ID longer than a
// chunk reads back whole too. So it stays after a snapshot and a reopen,
// which rebuilds the arena from the frozen file.
func TestCompletedIDNeverSplit(t *testing.T) {
	r := openRig(t, t.TempDir(), nil)
	campaign, videos := r.campaign("timeline", 2)
	var ids []string
	total := 0
	for i := 0; i < 100; i++ {
		id := fmt.Sprintf("s-long-%093d", i)
		if i == 60 {
			id = "s-longer-than-a-chunk-" + strings.Repeat("x", chunkBytes)
		}
		res := r.mustApply(&Event{Op: OpSession, ID: id, Campaign: campaign, Videos: sevenOf(videos[i%2]),
			Worker: &Worker{ID: fmt.Sprintf("split-%d", i)}})
		r.complete(id, res.Tests, 1500, true, 12, 0)
		ids = append(ids, id)
		total += len(id)
	}
	check := func(when string) {
		t.Helper()
		c, _ := r.st.Campaign(campaign)
		for i, want := range ids {
			end := int(c.ids.size(uint32(i + 1)))
			start := c.ids.tail.wholeStart(int(c.ids.size(uint32(i))), end)
			if got := c.completedID(uint32(i)); got != want {
				t.Fatalf("%s: completed session %d reads back as %.40q, want %.40q", when, i, got, want)
			}
			if len(want) <= chunkBytes && len(c.ids.tail.part(start, end)) != len(want) {
				t.Fatalf("%s: completed session %d's ID, at %d-%d, crosses a chunk boundary", when, i, start, end)
			}
		}
		if f := c.Footprint(); f.IDs.Len <= total {
			t.Fatalf("%s: the arena holds %d B for %d B of IDs: no chunk was padded, the test proves nothing", when, f.IDs.Len, total)
		}
	}
	check("in the heap")
	if err := r.snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.reopen(); err != nil {
		t.Fatal(err)
	}
	check("reopened")
}

// TestFewSessionsHoldNoMoreThanSlices: a campaign of a few completed
// sessions, its rows rendered by a poll, holds, part by part, no more
// than the slices a stream kept before it was chunked, each fed the same
// pieces by append.
func TestFewSessionsHoldNoMoreThanSlices(t *testing.T) {
	r := openRig(t, t.TempDir(), nil)
	campaign, _ := r.campaign("timeline", 3)
	completeN(r, campaign, "few", 5)
	c, _ := r.st.Campaign(campaign)
	if _, err := r.analytics(campaign, 20, 80); err != nil {
		t.Fatal(err)
	}
	var records, rows, ids []byte
	var ends [3][]uint32
	for i := range c.ids.count() {
		sess, err := r.st.Session(c.completedID(i))
		if err != nil {
			t.Fatal(err)
		}
		records = store.AppendRecord(records, appendFrozen(appendString(nil, sess.ID), c, sess))
		v := sess.verdict()
		rows = append(v.appendRow(rows), ',')
		ids = append(ids, sess.ID...)
		for k, n := range [3]int{len(ids), len(records), len(rows)} {
			ends[k] = append(ends[k], uint32(n))
		}
	}
	f := c.Footprint()
	endsCap := 4 * (cap(ends[0]) + cap(ends[1]) + cap(ends[2]))
	for _, p := range []struct {
		name     string
		got      Held
		len, cap int
	}{
		{"records", f.Records, len(records), cap(records)},
		{"rows", f.Rows, len(rows), cap(rows)},
		{"IDs", f.IDs, len(ids), cap(ids)},
		{"ends", f.Ends, 12 * len(ends[0]), endsCap},
	} {
		if p.got.Len != p.len || p.got.Cap > p.cap {
			t.Errorf("%s hold %d B of %d allocated; slices held %d B of %d", p.name, p.got.Len, p.got.Cap, p.len, p.cap)
		}
	}
}
