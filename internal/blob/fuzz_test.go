package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"
)

// FuzzBlobPut round-trips arbitrary payloads through every tier: the
// content address must always be the payload's SHA-256, reads must
// return identical bytes, duplicate puts must dedup, and the memory tier
// must hold the payload as one slice of exactly its length — for any
// payload, empty included.
func FuzzBlobPut(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0xAB}, 256))
	f.Add(bytes.Repeat([]byte("EYV1"), 100))
	f.Fuzz(func(t *testing.T, payload []byte) {
		want := sha256.Sum256(payload)
		wantHash := hex.EncodeToString(want[:])

		for name, s := range tiers(t) {
			ref, created, err := s.Put(bytes.NewReader(payload))
			if err != nil {
				t.Fatalf("%s: Put: %v", name, err)
			}
			if !created || ref.Hash != wantHash || ref.Size != int64(len(payload)) {
				t.Fatalf("%s: ref = %+v created=%v, want hash %s size %d",
					name, ref, created, wantHash, len(payload))
			}
			if _, created, err := s.Put(bytes.NewReader(payload)); err != nil || created {
				t.Fatalf("%s: dup Put: created=%v err=%v", name, created, err)
			}
			if name == "mem" {
				checkExactSlice(t, s, ref.Hash)
			}
			got, err := s.ReadAll(ref.Hash)
			if err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("%s: ReadAll mismatch: err=%v", name, err)
			}
			// Open twice: the first read on the file tier maps the blob
			// and the second is served from the mapping; both must match.
			for i := 0; i < 2; i++ {
				rc, size, err := s.Open(ref.Hash)
				if err != nil {
					t.Fatalf("%s: Open #%d: %v", name, i, err)
				}
				if size != int64(len(payload)) {
					t.Fatalf("%s: Open #%d size = %d", name, i, size)
				}
				via, err := io.ReadAll(rc)
				rc.Close()
				if err != nil || !bytes.Equal(via, payload) {
					t.Fatalf("%s: Open #%d read mismatch: err=%v", name, i, err)
				}
			}
		}
	})
}
