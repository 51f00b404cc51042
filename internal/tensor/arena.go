package tensor

// Arena is a grow-only bump allocator for float32 buffers with a
// single-shot free: Alloc hands out slices of large backing chunks, and
// Reset makes every previously handed-out slice reusable at once without
// returning anything to the Go heap. A tape allocates every node buffer
// from its arena, so one training step's worth of intermediate tensors
// costs the garbage collector nothing after the first epoch warms the
// chunks up.
//
// Lifetime rule: a slice returned by Alloc/AllocNoZero is valid until
// the arena's next Reset, after which it will be handed out again —
// holding one across a Reset is a use-after-free. Arenas are
// single-goroutine; concurrency comes from using one arena per tape.
// The zero value is ready to use.
type Arena struct {
	chunks [][]float32
	ci     int // chunk currently being bumped
	off    int // bump offset within chunks[ci]
}

// arenaMinChunk is the smallest backing chunk (in float32s): 256 KiB,
// large enough that a tiny model's whole tape fits in a few chunks while
// a single outsized request still gets a chunk of its own.
const arenaMinChunk = 1 << 16

// Alloc returns a zeroed n-float slice valid until Reset.
func (a *Arena) Alloc(n int) []float32 {
	s := a.AllocNoZero(n)
	clear(s)
	return s
}

// AllocNoZero returns an n-float slice valid until Reset without
// clearing it — for buffers the caller overwrites entirely. Reused
// memory holds stale values from before the last Reset.
func (a *Arena) AllocNoZero(n int) []float32 {
	for {
		if a.ci < len(a.chunks) {
			ch := a.chunks[a.ci]
			if a.off+n <= len(ch) {
				s := ch[a.off : a.off+n : a.off+n]
				a.off += n
				return s
			}
			a.ci++
			a.off = 0
			continue
		}
		size := arenaMinChunk
		for size < n {
			size <<= 1
		}
		a.chunks = append(a.chunks, make([]float32, size))
	}
}

// Reset rewinds the arena: every chunk is retained and every slice
// handed out since the previous Reset becomes reusable.
func (a *Arena) Reset() {
	a.ci, a.off = 0, 0
}
