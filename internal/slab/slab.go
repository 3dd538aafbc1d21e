// Package slab carves many small objects from a few larger arrays. The
// front end allocates by the body, not by the node (DESIGN §10.4): the
// parser's arena, the CFG builder and the program builder each keep
// typed slabs, owned by one worker of one pass, and hand out their
// elements in order. An element stays valid, and keeps its chunk alive,
// for as long as anything points into it (DESIGN §12.1).
package slab

import "unsafe"

// Slab hands out the elements of a chunk in order. Each chunk is twice
// its predecessor's length, up to chunkBytes bytes, and holds at least
// minChunk lists of the request that opens it: a slab whose first list
// is of four elements starts with a chunk of eight. A list longer than half the
// largest chunk gets an array of its own and leaves the chunk as it
// is: a chunk's unclaimed tail is lost. The zero value is ready to use;
// a Slab is not safe for concurrent use.
type Slab[T any] struct {
	free []T // the current chunk's unclaimed tail
	size int // the current chunk's length
}

// A chunk's unclaimed tail is lost when its slab's pass ends, so chunks
// stay small: a standalone parse of a small file keeps a tail per node
// kind, and a small program's CFG builder one per array kind.
// TestFrontEndAllocs and TestCallRichTraversalAllocs weigh the choice
// (DESIGN §10.4).
const (
	minChunk   = 2
	chunkBytes = 1 << 10
)

// Take returns the next n elements, zeroed, as a list of capacity n:
// appending past it moves the list, never into a neighbour's.
func (s *Slab[T]) Take(n int) []T {
	if len(s.free) < n {
		limit := max(minChunk, chunkBytes/max(1, int(unsafe.Sizeof(*new(T)))))
		if 2*n > limit {
			return make([]T, n)
		}
		s.size = min(max(2*s.size, minChunk*n), limit)
		s.free = make([]T, s.size)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// New returns the next element, zeroed.
func (s *Slab[T]) New() *T { return &s.Take(1)[0] }
