package blob

import (
	"bytes"
	"errors"
	"io"
)

// byteContent adapts resident bytes to the io.ReadSeekCloser
// http.ServeContent wants, without copying them.
type byteContent struct{ *bytes.Reader }

func (byteContent) Close() error { return nil }

// chunkReader serves a multi-chunk memory-tier blob as one logical
// stream: every chunk except the last is exactly `chunk` bytes, so
// offset→chunk resolution is a division, and Range reads touch only the
// chunks they overlap.
type chunkReader struct {
	chunks [][]byte
	chunk  int64
	size   int64
	off    int64
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if r.off >= r.size {
		return 0, io.EOF
	}
	ci := r.off / r.chunk
	co := r.off % r.chunk
	n := copy(p, r.chunks[ci][co:])
	r.off += int64(n)
	return n, nil
}

func (r *chunkReader) Seek(offset int64, whence int) (int64, error) {
	switch whence {
	case io.SeekStart:
	case io.SeekCurrent:
		offset += r.off
	case io.SeekEnd:
		offset += r.size
	default:
		return 0, errors.New("blob: invalid whence")
	}
	if offset < 0 {
		return 0, errors.New("blob: negative seek")
	}
	r.off = offset
	return offset, nil
}

func (r *chunkReader) Close() error { return nil }
