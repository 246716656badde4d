// Fuzz targets for the WAL record framing. Recovery feeds scanSegment
// whatever bytes a crash left on disk, so the walker and the decoder must
// never panic and must only ever accept frames the encoder could have
// written.
package store

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDecodeRecord throws arbitrary bytes at the frame decoder and the
// segment walker: no input may panic, a zero-length header is never
// accepted, accepted frames must re-encode to the exact input bytes, and
// the reported valid prefix must itself scan cleanly.
func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})                                             // short header
	f.Add(AppendRecord(nil, nil))                                         // zero header: an empty payload's encoding
	f.Add(make([]byte, 64))                                               // a preallocated tail
	f.Add(AppendRecord(nil, []byte("journal record")))                    // one frame
	f.Add(append(AppendRecord(nil, []byte("last")), make([]byte, 32)...)) // data, then zeros
	f.Add(AppendRecord(AppendRecord(nil, []byte("a")),                    // two frames,
		[]byte("b"))[:12]) // torn second
	huge := make([]byte, recordHeader)
	binary.LittleEndian.PutUint32(huge[0:4], ^uint32(0)) // implausible length
	f.Add(huge)
	corrupt := AppendRecord(nil, []byte("flip me"))
	corrupt[len(corrupt)-1] ^= 0xff // checksum mismatch
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, ok := DecodeRecord(data)
		if ok {
			if len(payload) == 0 {
				t.Fatalf("accepted a zero-length frame: %x", data[:n])
			}
			if n <= recordHeader || n > len(data) {
				t.Fatalf("frame length %d out of bounds for %d input bytes", n, len(data))
			}
			if re := AppendRecord(nil, payload); !bytes.Equal(re, data[:n]) {
				t.Fatalf("accepted frame does not re-encode to its input:\n in:  %x\n out: %x", data[:n], re)
			}
		}
		var walked []byte // the walked records, framed again
		count, validSize, tail, err := scanSegment(bytes.NewReader(data), 1, func(_ uint64, payload []byte) error {
			if len(payload) == 0 {
				t.Fatalf("walked a zero-length frame at byte %d", len(walked))
			}
			walked = AppendRecord(walked, payload)
			return nil
		})
		if err != nil {
			t.Fatalf("scanSegment returned error: %v", err)
		}
		if validSize < 0 || validSize > int64(len(data)) {
			t.Fatalf("valid prefix %d out of bounds for %d input bytes", validSize, len(data))
		}
		if !tail && validSize != int64(len(data)) {
			t.Fatalf("clean scan consumed %d of %d bytes", validSize, len(data))
		}
		if !bytes.Equal(walked, data[:validSize]) {
			t.Fatalf("walked records do not re-encode to the valid prefix:\n in:  %x\n out: %x", data[:validSize], walked)
		}
		// The valid prefix is what recovery truncates to: re-scanning it
		// must yield the same records and no tail.
		count2, validSize2, tail2, err := scanSegment(bytes.NewReader(data[:validSize]), 1, nil)
		if err != nil || tail2 || count2 != count || validSize2 != validSize {
			t.Fatalf("valid prefix unstable: count %d->%d size %d->%d tail=%v err=%v",
				count, count2, validSize, validSize2, tail2, err)
		}
	})
}

// FuzzRecordRoundTrip: for any non-empty payload, encode → decode is
// the identity and the walker sees exactly the appended frames in
// order; an empty payload's frame is refused by the decoder rather than
// round-tripped (Append refuses the payload: TestAppendRejectsEmptyPayload).
func FuzzRecordRoundTrip(f *testing.F) {
	f.Add([]byte("first"), []byte("second"))
	f.Add([]byte(`{"op":"campaign","id":"c1"}`), []byte{0xff, 0x00})
	f.Add([]byte{}, []byte("second")) // refused
	f.Add([]byte{0x00}, []byte{})     // refused
	f.Fuzz(func(t *testing.T, a, b []byte) {
		if len(a) == 0 || len(b) == 0 {
			for _, p := range [][]byte{a, b} {
				if _, _, ok := DecodeRecord(AppendRecord(nil, p)); ok && len(p) == 0 {
					t.Fatal("an empty payload's frame decoded")
				}
			}
			return
		}
		buf := AppendRecord(AppendRecord(nil, a), b)
		got, n, ok := DecodeRecord(buf)
		if !ok || !bytes.Equal(got, a) {
			t.Fatalf("first frame: ok=%v payload %x, want %x", ok, got, a)
		}
		got2, _, ok := DecodeRecord(buf[n:])
		if !ok || !bytes.Equal(got2, b) {
			t.Fatalf("second frame: ok=%v payload %x, want %x", ok, got2, b)
		}
		var seen [][]byte
		count, validSize, tail, err := scanSegment(bytes.NewReader(buf), 7, func(seq uint64, payload []byte) error {
			if want := uint64(7 + len(seen)); seq != want {
				t.Fatalf("seq %d, want %d", seq, want)
			}
			seen = append(seen, append([]byte(nil), payload...))
			return nil
		})
		if err != nil || tail || count != 2 || validSize != int64(len(buf)) {
			t.Fatalf("scan: count=%d size=%d tail=%v err=%v", count, validSize, tail, err)
		}
		if !bytes.Equal(seen[0], a) || !bytes.Equal(seen[1], b) {
			t.Fatal("scanned payloads diverge from appended payloads")
		}
	})
}
