// Spilled sessions: a campaign's completed sessions are two streams of
// pieces, one per session in completion order — its frozen record,
// appended when it completes, and its /analytics row, rendered from the
// record by the first poll or snapshot after that (catchUpRows), so the
// rows may lag the records but never lead them — each kept by one type,
// stream. On a server with a data directory a snapshot moves each
// stream's first pieces out of the heap into an append-only file beside
// the journal, which internal/store owns: campaigns/<id>.frozen and
// .rows. An in-memory server spills nothing; its boundary stays at 0 and
// every read goes to the heap, through the same code. In the heap a
// stream's bytes and the offsets its pieces end at sit in fixed-size
// chunks (chunks.go), which an append adds to without copying what they
// held; a stream's offsets are the whole stream's, the files' too.
//
// A stream is blind to what its pieces hold. A record piece is one frame
// of the journal's own format (store.AppendRecord: a length, a CRC32-C
// and a payload of the session's ID, behind its varint length, and its
// frozen record), so the file alone names every session it holds and a
// flipped bit is caught wherever the record is read. A row piece is its
// ParticipantVerdict, the bytes encoding/json renders for it (appendRow),
// and a comma, unframed:
// Recover re-renders every row from its checked record and compares.
//
// Snapshot renders the rows no poll has rendered, then appends what froze
// since the last snapshot to both files and syncs them before it writes
// the state document, which records how many sessions each campaign
// completed and how long its two files are valid for. Only once the
// document is durable does a campaign move its boundary, under its shard
// lock: the bytes it wrote leave the heap. Recover truncates each file
// to the newest document's lengths (a crash may have left a tail past
// them, or the document may be the older of two), then walks it to
// rebuild the campaign's IDs, offsets, row order and §4.3 fold,
// rendering each row from its record into one reused buffer to check
// it; a frame that fails its check, or a row that is not the one its
// record renders, fails Open naming the campaign, the file and the
// offset.
//
// Readers of the files — an /analytics render, which reads the spilled
// rows once per render, and a lookup of a completed session, which reads
// and checks its one record — read with ReadAt under the campaign's
// shard lock, held at least shared, so the boundary they read below
// cannot move; none touches a file while nothing is spilled. The rows'
// tail grows only under that lock held exclusively (catchUpRows).
// Nothing maps the files, so a file cut short under a reader is an
// error, not a fault, and a record whose frame fails its check is
// ErrSpillCorrupt.
package state

import (
	"bytes"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"

	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// filesDir is the subdirectory of the data directory that holds every
// campaign's files; streamExts end their names, in streams' order.
const filesDir = "campaigns"

var streamExts = [2]string{".frozen", ".rows"}

// stream is one of a campaign's two byte streams. Piece i, completed
// session i's, ends at offset ends.at(i) of the whole stream. The pieces
// before the campaign's spill boundary are in file, which is nil until
// a snapshot first spills and always nil in memory; tail holds the
// bytes from the boundary on, tail offset 0 being the boundary's stream
// offset. Both tail and ends are chunks, so a completion appends its
// bytes and its offset without copying what the stream held before. A
// piece may cross a chunk boundary of the tail; a reader that needs it
// whole gets a copy (piece). A campaign's ID arena (Campaign.ids) is a
// stream that never spills: its file stays nil and its boundary 0, each
// piece lies in one chunk (chunks.appendWhole), and no piece is ever
// rewritten.
type stream struct {
	tail chunks[byte]
	ends chunks[uint32]
	file *store.File
}

// streams lists c's streams: the frozen records, then the /analytics
// rows.
func (c *Campaign) streams() [2]*stream { return [2]*stream{&c.records, &c.rows} }

// fileName is the name of campaign id's file of stream k.
func fileName(id string, k int) string { return path.Join(filesDir, id+streamExts[k]) }

// maxFileID is the longest campaign ID whose file names fit the 255
// bytes a file name may hold.
const maxFileID = 255 - len(".frozen")

// checkFileID refuses a campaign ID that cannot name its files under
// filesDir: an empty or over-long one, "." or "..", or one holding a
// NUL or a path separator, which would fail every snapshot or name a
// file outside filesDir. Any other ID is accepted, those past
// validCampaignID's bounds that older builds journaled included.
func checkFileID(id string) error {
	if id == "" || len(id) > maxFileID || id == "." || id == ".." || strings.ContainsAny(id, "/\\\x00") {
		return fmt.Errorf("campaign ID %q cannot name the campaign's files", id)
	}
	return nil
}

// count is the number of pieces.
func (s *stream) count() uint32 { return uint32(s.ends.len()) }

// size is the length of the first n pieces: where piece n starts.
func (s *stream) size(n uint32) uint32 {
	if n == 0 {
		return 0
	}
	return s.ends.at(int(n - 1))
}

// push ends a piece at the end of the tail, to which the caller
// appended its bytes. spilled is the campaign's boundary.
func (s *stream) push(spilled uint32) {
	s.ends.append(s.size(spilled) + uint32(s.tail.len()))
}

// piece returns piece i: a slice of the tail when it lies in one chunk,
// assembled into a new slice when it crosses into the next, or read
// from the file into a new slice when it is spilled.
func (s *stream) piece(i, spilled uint32) ([]byte, error) {
	if i < spilled {
		start := s.size(i)
		b := make([]byte, s.size(i+1)-start)
		return b, s.file.ReadAt(b, int64(start))
	}
	var b []byte
	return s.inTail(i, spilled, &b), nil
}

// inTail returns piece i, one not spilled: a slice of the tail when it
// lies in one chunk, else assembled in *buf, which it reuses when it has
// the room.
func (s *stream) inTail(i, spilled uint32, buf *[]byte) []byte {
	base := s.size(spilled)
	from, to := int(s.size(i)-base), int(s.size(i+1)-base) // a piece is never empty
	if p := s.tail.part(from, to); len(p) == to-from {
		return p
	}
	*buf = s.tail.appendTo((*buf)[:0], from, to)
	return *buf
}

// regionPool recycles the buffers renders read the spilled rows into.
var regionPool = sync.Pool{New: func() any { return new([]byte) }}

// readSpilled reads the spilled pieces, all of them, into a pooled
// buffer, which the caller hands back to regionPool once it has copied
// them out; nothing is read, and the buffer is empty, while nothing is
// spilled.
func (s *stream) readSpilled(spilled uint32) (*[]byte, error) {
	buf := regionPool.Get().(*[]byte)
	n := int(s.size(spilled))
	*buf = slices.Grow((*buf)[:0], n)[:n]
	if n == 0 {
		return buf, nil
	}
	if err := s.file.ReadAt(*buf, 0); err != nil {
		regionPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// flush brings the file, which holds the pieces before spilled and may
// hold some after them, up to the end of piece n-1 from the tail, and
// syncs what it appended.
func (s *stream) flush(campaign string, spilled, n uint32) error {
	base, want, have := int64(s.size(spilled)), int64(s.size(n)), s.file.Size()
	if have > want {
		return fmt.Errorf("campaign %s: %s holds %d bytes, past the %d its completed sessions fill", campaign, s.file.Name(), have, want)
	}
	for from, to := int(have-base), int(want-base); from < to; {
		p := s.tail.part(from, to)
		if err := s.file.Append(p); err != nil {
			return err
		}
		from += len(p)
	}
	if s.file.Synced() < want {
		return s.file.Sync()
	}
	return nil
}

// advance moves the tail past piece n-1, from spilled: what is left, if
// anything, goes to new chunks, so the chunks written become garbage.
func (s *stream) advance(spilled, n uint32) {
	var rest chunks[byte]
	rest.append(s.tail.appendTo(nil, int(s.size(n)-s.size(spilled)), s.tail.len())...)
	s.tail = rest
}

// open opens campaign's file name, creating it empty, cuts it to its
// first n bytes and returns them: bytes past n are a crashed process's,
// which no document this process loaded covers. A file shorter than n
// fails, naming the campaign and the file.
func (st *State) open(campaign, name string, n int64) (*store.File, []byte, error) {
	f, err := st.disk.OpenFile(name)
	if err != nil {
		return nil, nil, err
	}
	var valid []byte
	switch {
	case n < 0 || f.Size() < n:
		err = fmt.Errorf("campaign %s: %s holds %d bytes, its document says %d", campaign, name, f.Size(), n)
	case f.Size() > n:
		err = f.Truncate(n)
	}
	if err == nil {
		valid = make([]byte, n)
		err = f.ReadAt(valid, 0)
	}
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return f, valid, nil
}

// closeFiles closes the files c's streams have open.
func (c *Campaign) closeFiles() (err error) {
	for _, s := range c.streams() {
		if s.file != nil {
			if ferr := s.file.Close(); err == nil {
				err = ferr
			}
		}
	}
	return err
}

// loadFiles opens c's files, cuts each to its length in lengths and
// returns their valid bytes, in streams' order. On failure no file is
// left open.
func (st *State) loadFiles(c *Campaign, lengths [2]int64) (valid [2][]byte, err error) {
	for k, s := range c.streams() {
		if s.file, valid[k], err = st.open(c.ID, fileName(c.ID, k), lengths[k]); err != nil {
			c.closeFiles()
			c.records.file, c.rows.file = nil, nil
			return valid, err
		}
	}
	return valid, nil
}

// spill appends to c's files every piece that froze since they were
// last written to, and syncs them: afterwards they are valid, and
// durable, up to the lengths c's section records. It opens the files at
// c's first spill, when nothing is spilled yet and no reader touches
// them. Caller holds world exclusively, so nothing completes meanwhile;
// in memory it does nothing.
func (st *State) spill(c *Campaign) error {
	if st.disk == nil {
		return nil
	}
	if c.records.file == nil {
		if _, err := st.loadFiles(c, [2]int64{}); err != nil {
			return err
		}
	}
	for _, s := range c.streams() {
		if err := s.flush(c.ID, c.spilled, c.ids.count()); err != nil {
			return err
		}
	}
	return nil
}

// catchUpRows renders the rows c's completed sessions lack under c's
// shard lock, held exclusively: an /analytics poll, which reads the rows
// under it held shared, may be running. Caller holds world exclusively,
// so nothing completes meanwhile, and until it releases world every
// completed session has its row.
func (st *State) catchUpRows(c *Campaign) error {
	csh := st.campaigns.Shard(c.ID)
	csh.Lock()
	defer csh.Unlock()
	return c.catchUpRows()
}

// advance moves c's boundary to its first n completed sessions, all of
// them in its files and covered by a durable document.
func (st *State) advance(c *Campaign, n uint32) {
	csh := st.campaigns.Shard(c.ID)
	csh.Lock()
	defer csh.Unlock()
	if st.disk == nil || n <= c.spilled {
		return
	}
	for _, s := range c.streams() {
		s.advance(c.spilled, n)
	}
	c.spilled = n
}

// unframe checks the frame at the start of b, a record piece, and
// splits its payload into the session ID and its frozen record; n is
// the frame's length.
func unframe(b []byte) (id, rec []byte, n int, ok bool) {
	payload, n, ok := store.DecodeRecord(b)
	p := wire.Parser{Rest: payload}
	id = p.Bytes(len(p.Rest))
	return id, p.Rest, n, ok && p.Err == nil
}

// badFrame is the error for record piece i of c, whose frame fails its
// check.
func (c *Campaign) badFrame(i uint32) error {
	return fmt.Errorf("%w: campaign %s row %d: %s holds no valid frame at offset %d", ErrSpillCorrupt, c.ID, i, fileName(c.ID, 0), c.records.size(i))
}

// record returns completed session i's frozen record, from the heap or
// read from the frozen file, once its frame is checked. Caller holds the
// campaign's shard lock, at least shared.
func (c *Campaign) record(i uint32) ([]byte, error) {
	piece, err := c.records.piece(i, c.spilled)
	if err != nil {
		return nil, err
	}
	if _, rec, n, ok := unframe(piece); ok && n == len(piece) {
		return rec, nil
	}
	return nil, c.badFrame(i)
}

// fileSpilled rebuilds restored campaign c's spilled sessions from the
// valid bytes of its files: each frame of frozen is checked, its ID
// appended to c's arena and its record decoded with that view of the
// arena as the session's ID, its join noted by the stopper and the
// session filed (fileCompleted), and the row its record renders
// (renderRow) must be the next of rows. Neither stream's tail takes a
// byte: the files hold them, and only the pieces' ends are kept, so
// every row is rendered, as the sessions a snapshot spills are. Caller
// has built c's videos and stopper, and holds no lock: c is not
// reachable yet.
func (c *Campaign) fileSpilled(frozen, rows []byte) error {
	start := 0 // of the next row in rows
	for off, row := 0, uint32(0); off < len(frozen); row++ {
		id, rec, n, ok := unframe(frozen[off:])
		if !ok {
			return c.badFrame(row)
		}
		c.ids.tail.appendWhole(id)
		c.ids.push(0)
		sid := c.completedID(row)
		sess, err := decodeFrozen(c, sid, rec)
		if err != nil {
			return fmt.Errorf("campaign %s row %d (session %s): %w", c.ID, row, sid, err)
		}
		if _, dup := c.frozenAt(sid); dup {
			return fmt.Errorf("campaign %s row %d: session %s completed twice", c.ID, row, sid)
		}
		off += n
		c.records.ends.append(uint32(off))
		if c.adaptive != nil {
			c.adaptive.NoteJoin(sess.videos())
		}
		c.fileCompleted(sess)
		piece, err := c.renderRow(row, rec)
		if err != nil {
			return err
		}
		if stop := start + len(piece); stop > len(rows) || !bytes.Equal(piece, rows[start:stop]) {
			return fmt.Errorf("%w: campaign %s row %d (session %s): %s does not hold at offset %d the row its record renders", ErrSpillCorrupt, c.ID, row, sid, fileName(c.ID, 1), start)
		}
		start += len(piece)
		c.rows.ends.append(uint32(start))
	}
	if start != len(rows) {
		return fmt.Errorf("%w: campaign %s: %s holds %d bytes past its last row, at offset %d", ErrSpillCorrupt, c.ID, fileName(c.ID, 1), len(rows)-start, start)
	}
	return nil
}

// sweep removes the files of every campaign the state does not hold:
// a campaign the document does not list had completed nothing it
// covers. Recover calls it once the document is loaded.
func (st *State) sweep() error {
	names, err := st.disk.Files(filesDir)
	if err != nil {
		return err
	}
	for _, name := range names {
		base := path.Base(name)
		id := strings.TrimSuffix(base, path.Ext(base)) // one extension: an ID may hold ".rows"
		if _, held := st.campaigns.Get(id); held {
			continue
		}
		if err := st.disk.RemoveFile(name); err != nil {
			return err
		}
	}
	return nil
}
