// Package slab holds the memory a rebuild-every-cycle pipeline reuses: Slab, a
// chunked arena of zeroed slices that is rewound between uses, and Grow and
// Sized, the growth rule for a buffer that is kept from one use to the next.
//
// Both grow memory to at least twice what it was, so a working set that grows
// a little every cycle reallocates a logarithmic number of times, and reaching
// a peak costs about that peak once more, not once per growth step. A Slab
// also keeps every chunk it makes: what it allocated on the way serves again.
package slab

// Slab hands out zeroed slices of one element type, cut from chunks it keeps
// across rewinds. Until its first rewind a slab has no chunk: every request is
// an allocation cut exact, and the rewind makes one chunk of what was held. A
// slab that is never rewound is a throwaway, and room for a next use would be
// thrown away with it. From then on a request is served from the first chunk
// with room, and only when none has room is a chunk added, of the request or
// twice the last chunk, whichever is larger. Slices handed out stay valid
// until the next rewind, which wipes what each chunk handed out and makes all
// of it available again: everything a chunk has not handed out is zero, so a
// rewound slab holds no stale pointer into memory the caller has dropped.
//
// The zero value is an empty slab. A Slab must not be used from more than one
// goroutine at a time.
type Slab[T any] struct {
	chunks [][]T // every chunk, oldest first; each one's length is what it has handed out
	held   int   // elements handed out before the first rewind
	kept   bool  // rewound before, so it keeps chunks
}

// Take hands out n zeroed elements, with no capacity past them.
func (s *Slab[T]) Take(n int) []T {
	if n == 0 {
		return []T{}
	}
	if !s.kept {
		s.held += n
		return make([]T, n)
	}
	i := 0
	for i < len(s.chunks) && cap(s.chunks[i])-len(s.chunks[i]) < n {
		i++
	}
	if i == len(s.chunks) {
		size := n
		if i > 0 {
			size = max(n, 2*cap(s.chunks[i-1]))
		}
		s.chunks = append(s.chunks, make([]T, 0, size))
	}
	c := s.chunks[i]
	lo := len(c)
	s.chunks[i] = c[:lo+n]
	return c[lo : lo+n : lo+n]
}

// Rewind takes back everything handed out since the last rewind, wiped. The
// first rewind makes the slab's first chunk, of what it handed out before.
func (s *Slab[T]) Rewind() {
	if !s.kept {
		if s.held > 0 {
			s.chunks = [][]T{make([]T, 0, s.held)}
		}
		s.held, s.kept = 0, true
		return
	}
	for i, c := range s.chunks {
		clear(c)
		s.chunks[i] = c[:0]
	}
}

// Used returns how many elements the slab has handed out since the last
// rewind.
func (s *Slab[T]) Used() int {
	n := s.held
	for _, c := range s.chunks {
		n += len(c)
	}
	return n
}

// Grow returns buf with room for n more elements: buf itself when it has the
// room, else a copy with the capacity of grown.
func Grow[S ~[]E, E any](buf S, n int) S {
	if n <= cap(buf)-len(buf) {
		return buf
	}
	return append(make(S, 0, grown(cap(buf), len(buf)+n)), buf...)
}

// Sized returns buf with length n and unspecified contents: buf resliced when
// its capacity suffices, else a new array with the capacity of grown.
func Sized[S ~[]E, E any](buf S, n int) S {
	if n > cap(buf) {
		return make(S, n, grown(cap(buf), n))
	}
	return buf[:n]
}

// grown is the capacity a buffer of capacity c regrows to for n elements: at
// least twice c, and a quarter more than n, so that a buffer made for a first
// use has room for a next one a little larger.
func grown(c, n int) int { return max(2*c, n+n/4) }
