package state

import (
	"math/bits"
	"slices"
	"unsafe"
)

// chunkBytes is the size of a full chunk: one page.
const chunkBytes = 4096

// chunks is an append-only sequence of T held in chunks of chunkBytes
// each: element i is element i%per of chunk i/per, per elements to a
// chunk. A chunk once allocated at its full size is never copied and
// never regrown, so an append copies only what it appends and holds at
// most one chunk's spare capacity, and a slice of a chunk stays valid
// however many elements follow it. Only the first chunk grows, as
// append grows a slice, until it is full, and it is held beside the
// list of the others: a container of a few elements holds what a slice
// of them would.
type chunks[T byte | uint32] struct {
	first []T   // chunk 0
	rest  [][]T // chunks 1 on; every chunk before the last is full
	n     int
}

// shift is log2 of the elements a chunk holds.
func (c *chunks[T]) shift() uint {
	var zero T
	return uint(bits.TrailingZeros(chunkBytes) - bits.TrailingZeros(uint(unsafe.Sizeof(zero))))
}

// len is the number of elements held.
func (c *chunks[T]) len() int { return c.n }

// chunk returns chunk k.
func (c *chunks[T]) chunk(k int) []T {
	if k == 0 {
		return c.first
	}
	return c.rest[k-1]
}

// at returns element i.
func (c *chunks[T]) at(i int) T {
	s := c.shift()
	return c.chunk(i >> s)[i&(1<<s-1)]
}

// last returns the chunk the next element goes to, able to take at least
// min(want, what the chunk has left) more: a new chunk when the last is
// full, the first one grown when it is short of its room.
func (c *chunks[T]) last(want int) *[]T {
	s := c.shift()
	per, k := 1<<s, c.n>>s
	b := &c.first
	if k > 0 {
		if k > len(c.rest) {
			c.rest = append(c.rest, make([]T, 0, per))
		}
		b = &c.rest[k-1]
	}
	if want = min(want, per-len(*b)); cap(*b)-len(*b) < want {
		if cap(*b) <= per/2 {
			// Grown as append grows a slice, which cannot pass per from here.
			*b = slices.Grow(*b, want)
		} else {
			*b = append(make([]T, 0, per), *b...)
		}
	}
	return b
}

// append appends p, across as many chunks as it fills.
func (c *chunks[T]) append(p ...T) {
	for len(p) > 0 {
		b := c.last(len(p))
		m := min(cap(*b)-len(*b), len(p))
		*b = append(*b, p[:m]...)
		c.n += m
		p = p[m:]
	}
}

// appendWhole appends p, which fits in one chunk, within one chunk: when
// the last chunk has too little room left it is padded to its end, and p
// starts the next. A p longer than a chunk is appended across chunks
// from the start of one. It returns where p starts.
func (c *chunks[T]) appendWhole(p []T) int {
	s := c.shift()
	per := 1 << s
	if used := c.n & (per - 1); used != 0 && (used+len(p) > per || len(p) > per) {
		b := c.last(per)
		*b = (*b)[:per] // the padding is the zeros the chunk was made with
		c.n += per - used
	}
	start := c.n
	c.append(p...)
	return start
}

// wholeStart is where an element run that appendWhole appended starts,
// from where it ends and where the run before it ended: at prev unless
// the run crosses into a chunk prev is not in, when it starts that run
// of chunks.
func (c *chunks[T]) wholeStart(prev, end int) int {
	s := c.shift()
	if end == prev || prev>>s == (end-1)>>s {
		return prev
	}
	return (prev + 1<<s - 1) >> s << s
}

// part returns the longest run of elements from, from+1, … before to,
// from < to, that lies in one chunk: the whole of [from, to) when no
// chunk boundary falls inside it. It is a slice of the chunk, not a
// copy.
func (c *chunks[T]) part(from, to int) []T {
	s := c.shift()
	b := c.chunk(from >> s)[from&(1<<s-1):]
	return b[:min(to-from, len(b))]
}

// appendTo appends elements [from, to) to dst, one copy per chunk they
// lie in.
func (c *chunks[T]) appendTo(dst []T, from, to int) []T {
	for from < to {
		p := c.part(from, to)
		dst = append(dst, p...)
		from += len(p)
	}
	return dst
}

// held is what c holds in bytes: Len its elements, Cap its chunks'
// capacity and the list's of all but the first.
func (c *chunks[T]) held() Held {
	var zero T
	size := int(unsafe.Sizeof(zero))
	h := Held{Len: c.n * size, Cap: cap(c.first)*size + cap(c.rest)*int(unsafe.Sizeof(c.first))}
	for _, b := range c.rest {
		h.Cap += cap(b) * size
	}
	return h
}
