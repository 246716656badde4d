// Spilled sessions: on a server with a data directory, a snapshot moves
// each campaign's completed sessions out of the heap into two
// append-only files beside the journal, which internal/store owns —
// the frozen records (campaigns/<id>.frozen) and the rendered
// /analytics rows (campaigns/<id>.rows). The sessions in them are the
// campaign's first spilled ones, in completion order: the record of
// completed session i ends at byte arenaEnds[i] of the frozen file and
// its row at byte rowEnds[i] of the rows file, and arena and rows hold
// only the bytes past the last spilled one. An in-memory server spills
// nothing; its boundary stays at 0 and every read below goes to arena
// and rows, through the same code.
//
// An entry of the frozen file, and of the arena, is the session's ID
// and then its frozen record (frozen.go), each behind its length as an
// unsigned varint, so the file alone names every session it holds. A
// row is its ParticipantVerdict as encoding/json renders it and a comma.
//
// Snapshot appends what froze since the last snapshot to both files and
// syncs them before it writes the state document, which records how
// many sessions each campaign completed and how long its two files are
// valid for. Only once the document is durable does a campaign move its
// boundary, under its shard lock: the bytes it wrote leave the heap.
// Recover truncates each file to the newest document's lengths (a crash
// may have left a tail past them, or the document may be the older of
// two), then walks it to rebuild the campaign's IDs, offsets, row order
// and §4.3 fold, checking each row it renders against the file's.
//
// Readers of the files — an /analytics render, which reads the spilled
// rows once per render, and a lookup of a completed session, which reads
// its one record — read with ReadAt under the campaign's shard lock,
// held at least shared, so the boundary they read below cannot move.
// Nothing maps the files, so a file cut short under a reader is an
// error, not a fault.
package state

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"

	"github.com/eyeorg/eyeorg/internal/store"
	"github.com/eyeorg/eyeorg/internal/wire"
)

// filesDir is the subdirectory of the data directory that holds every
// campaign's files; frozenExt and rowsExt end their names.
const (
	filesDir  = "campaigns"
	frozenExt = ".frozen"
	rowsExt   = ".rows"
)

// campaignFiles are a campaign's two data files.
type campaignFiles struct {
	frozen, rows *store.File
}

func (f *campaignFiles) close() error {
	err := f.frozen.Close()
	if rerr := f.rows.Close(); err == nil {
		err = rerr
	}
	return err
}

// end returns where piece n-1 ends, which is where piece n starts: 0
// for n == 0.
func end(ends []uint32, n uint32) uint32 {
	if n == 0 {
		return 0
	}
	return ends[n-1]
}

// appendEntry appends the arena entry of session id, whose frozen record
// is rec, to dst.
func appendEntry(dst []byte, id string, rec []byte) []byte {
	dst = appendString(dst, id)
	return append(binary.AppendUvarint(dst, uint64(len(rec))), rec...)
}

// nextEntry reads the first entry of b: the session ID, its record and
// what follows the entry.
func nextEntry(b []byte) (id, rec, rest []byte, err error) {
	p := wire.Parser{Rest: b}
	id = p.Bytes(len(p.Rest))
	rec = p.Bytes(len(p.Rest))
	if p.Err != nil {
		return nil, nil, nil, fmt.Errorf("%w: the entry ends early", errFrozen)
	}
	return id, rec, p.Rest, nil
}

// record returns completed session i's frozen record: from the arena,
// or read from the frozen file into a new slice when the session is
// spilled. Caller holds the campaign's shard lock, at least shared.
func (c *Campaign) record(i uint32) ([]byte, error) {
	start, stop := end(c.arenaEnds, i), c.arenaEnds[i]
	var entry []byte
	if i < c.spilled {
		entry = make([]byte, stop-start)
		if err := c.files.frozen.ReadAt(entry, int64(start)); err != nil {
			return nil, err
		}
	} else {
		base := end(c.arenaEnds, c.spilled)
		entry = c.arena[start-base : stop-base]
	}
	_, rec, rest, err := nextEntry(entry)
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%w: %d bytes follow its entry", errFrozen, len(rest))
	}
	return rec, err
}

// row returns completed session i's row and its comma, from spilled,
// the rows file's valid region as readSpilledRows read it, or from rows.
// Caller holds the campaign's shard lock, at least shared.
func (c *Campaign) row(spilled []byte, i uint32) []byte {
	start, stop := end(c.rowEnds, i), c.rowEnds[i]
	if i < c.spilled {
		return spilled[start:stop]
	}
	base := end(c.rowEnds, c.spilled)
	return c.rows[start-base : stop-base]
}

// regionPool recycles the buffers renders read the spilled rows into.
var regionPool = sync.Pool{New: func() any { return new([]byte) }}

// readSpilledRows reads the rows of the spilled sessions, all of them,
// into a pooled buffer, which the caller hands back to regionPool once
// it has copied the rows out; nothing is read, and buf is empty, while
// nothing is spilled. Caller holds the campaign's shard lock, at least
// shared.
func (c *Campaign) readSpilledRows() (*[]byte, error) {
	buf := regionPool.Get().(*[]byte)
	n := int(end(c.rowEnds, c.spilled))
	*buf = slices.Grow((*buf)[:0], n)[:n]
	if n == 0 {
		return buf, nil
	}
	if err := c.files.rows.ReadAt(*buf, 0); err != nil {
		regionPool.Put(buf)
		return nil, err
	}
	return buf, nil
}

// spill appends to c's files every entry and row that froze since they
// were last written to, and syncs them: afterwards they are valid, and
// durable, up to the lengths c's section records. It opens the files at
// c's first spill. Caller holds world exclusively, so nothing completes
// meanwhile; in memory it does nothing.
func (st *State) spill(c *Campaign) error {
	if st.disk == nil {
		return nil
	}
	if c.files == nil {
		files, err := st.openFiles(c.ID)
		if err != nil {
			return err
		}
		// Bytes past the boundary are a crashed process's: no document
		// this process loaded covers them.
		if err = files.frozen.Truncate(int64(end(c.arenaEnds, c.spilled))); err == nil {
			err = files.rows.Truncate(int64(end(c.rowEnds, c.spilled)))
		}
		if err != nil {
			files.close()
			return err
		}
		csh := st.campaigns.Shard(c.ID)
		csh.Lock()
		c.files = files
		csh.Unlock()
	}
	n := uint32(len(c.recordSessions))
	if err := appendTail(c.ID, c.files.frozen, c.arena, c.arenaEnds, c.spilled, n); err != nil {
		return err
	}
	return appendTail(c.ID, c.files.rows, c.rows, c.rowEnds, c.spilled, n)
}

// appendTail brings f, which holds the pieces before spilled and may
// hold some after them, up to the end of piece n-1 from tail, the bytes
// from the end of piece spilled-1 on, and syncs what it appended.
func appendTail(campaign string, f *store.File, tail []byte, ends []uint32, spilled, n uint32) error {
	base, want, have := int64(end(ends, spilled)), int64(end(ends, n)), f.Size()
	if have > want {
		return fmt.Errorf("campaign %s: %s holds %d bytes, past the %d its completed sessions fill", campaign, f.Name(), have, want)
	}
	if have < want {
		if err := f.Append(tail[have-base : want-base]); err != nil {
			return err
		}
	}
	if f.Synced() < want {
		return f.Sync()
	}
	return nil
}

// advance moves c's boundary to its first n completed sessions, all of
// them in its files and covered by a durable document. The tail past
// them moves to new slices, so the bytes written become garbage.
func (st *State) advance(c *Campaign, n uint32) {
	csh := st.campaigns.Shard(c.ID)
	csh.Lock()
	defer csh.Unlock()
	if c.files == nil || n <= c.spilled {
		return
	}
	arenaBase, rowsBase := end(c.arenaEnds, c.spilled), end(c.rowEnds, c.spilled)
	c.arena = append([]byte(nil), c.arena[end(c.arenaEnds, n)-arenaBase:]...)
	c.rows = append([]byte(nil), c.rows[end(c.rowEnds, n)-rowsBase:]...)
	c.spilled = n
}

// openFiles opens campaign id's two files, creating them empty.
func (st *State) openFiles(id string) (*campaignFiles, error) {
	frozen, err := st.disk.OpenFile(path.Join(filesDir, id+frozenExt))
	if err != nil {
		return nil, err
	}
	rows, err := st.disk.OpenFile(path.Join(filesDir, id+rowsExt))
	if err != nil {
		frozen.Close()
		return nil, err
	}
	return &campaignFiles{frozen: frozen, rows: rows}, nil
}

// loadFiles opens the files of section cn, truncates each to the length
// cn records, and returns their valid bytes. A file shorter than that
// fails, naming the campaign and the file.
func (st *State) loadFiles(cn *SnapCampaign) (files *campaignFiles, frozen, rows []byte, err error) {
	if st.disk == nil {
		return nil, nil, nil, fmt.Errorf("campaign %s: its %d completed sessions are in files, and this state has no data directory", cn.ID, cn.Frozen)
	}
	if files, err = st.openFiles(cn.ID); err != nil {
		return nil, nil, nil, err
	}
	read := func(f *store.File, n int64) ([]byte, error) {
		if n < 0 || f.Size() < n {
			return nil, fmt.Errorf("campaign %s: %s holds %d bytes, its document says %d", cn.ID, f.Name(), f.Size(), n)
		}
		if f.Size() > n {
			if err := f.Truncate(n); err != nil {
				return nil, err
			}
		}
		b := make([]byte, n)
		return b, f.ReadAt(b, 0)
	}
	if frozen, err = read(files.frozen, cn.FrozenBytes); err == nil {
		rows, err = read(files.rows, cn.RowBytes)
	}
	if err != nil {
		files.close()
		return nil, nil, nil, err
	}
	return files, frozen, rows, nil
}

// fileSpilled rebuilds restored campaign c's spilled sessions from the
// valid bytes of its files: each entry of frozen is decoded, its join
// noted by the stopper and the session filed (fileCompleted), and the
// row that renders must be the next of rows. Caller has built c's
// videos and stopper, and holds no lock: c is not reachable yet.
func (c *Campaign) fileSpilled(frozen, rows []byte) error {
	rest := frozen
	for row := 0; len(rest) > 0; row++ {
		id, rec, next, err := nextEntry(rest)
		if err != nil {
			return fmt.Errorf("campaign %s row %d: %w", c.ID, row, err)
		}
		sid := string(id)
		sess, err := decodeFrozen(c, sid, rec)
		if err != nil {
			return fmt.Errorf("campaign %s row %d (session %s): %w", c.ID, row, sid, err)
		}
		if _, dup := c.frozenAt(sid); dup {
			return fmt.Errorf("campaign %s row %d: session %s completed twice", c.ID, row, sid)
		}
		rest = next
		c.arenaEnds = append(c.arenaEnds, uint32(len(frozen)-len(rest)))
		if c.adaptive != nil {
			c.adaptive.NoteJoin(sess.videos())
		}
		start := len(c.rows)
		c.fileCompleted(sess)
		if stop := len(c.rows); stop > len(rows) || !bytes.Equal(c.rows[start:], rows[start:stop]) {
			return fmt.Errorf("campaign %s row %d (session %s): the rows file does not hold the row its record renders", c.ID, row, sid)
		}
	}
	if len(c.rows) != len(rows) {
		return fmt.Errorf("campaign %s: the rows file holds %d bytes past its last row", c.ID, len(rows)-len(c.rows))
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
		id := strings.TrimSuffix(strings.TrimSuffix(path.Base(name), frozenExt), rowsExt)
		if _, held := st.campaigns.Get(id); held {
			continue
		}
		if err := st.disk.RemoveFile(name); err != nil {
			return err
		}
	}
	return nil
}
