package cluster

// link is one point-to-point wire of the topology. Frames take one
// tick per hop (plus any injected delay); a partitioned link drops
// everything, including what was already in flight — a yanked cable,
// not a paused one.
type link struct {
	id    int // 1-based fault target
	queue []inflight

	partitionedUntil uint64
	delayExtra       uint64 // one-shot, next frame only
	corruptNext      bool
}

type inflight struct {
	at       uint64 // delivery tick
	data     []byte // owned by the link until delivered; from bufPool
	toClient bool
	toLB     bool
}

// due moves the frames whose delivery tick has arrived onto out,
// preserving send order, and returns it. The link keeps the rest in
// place, so a warm queue and a reused out slice never allocate.
func (l *link) due(tick uint64, out []inflight) []inflight {
	keep := l.queue[:0]
	for _, f := range l.queue {
		if f.at <= tick {
			out = append(out, f)
		} else {
			keep = append(keep, f)
		}
	}
	l.queue = keep
	return out
}

// flush drops everything in flight, returning the frames' buffers to
// pool, and reports how many frames died.
func (l *link) flush(pool *bufPool) uint64 {
	n := uint64(len(l.queue))
	for _, f := range l.queue {
		pool.put(f.data)
	}
	l.queue = l.queue[:0]
	return n
}

// frameBufCap sizes a fresh frame buffer for a kv frame (Ethernet, IP
// and UDP headers, an optional trace header and a small kv request or
// reply). A larger frame grows its buffer by append, and the grown
// buffer is what returns to the pool.
const frameBufCap = 256

// bufPool recycles frame buffers. Every frame on a link or in a
// machine inbox owns one buffer from the pool, and each place a frame
// dies returns it: after the client consumes it, on a drop at a dead
// machine, when the LB or a backend drains its inbox, when a machine
// is killed with frames queued, and when a partition flushes a link.
// A stalled machine's inbox keeps its buffers until it is drained.
type bufPool struct {
	free [][]byte

	// poison, set only by tests, fills every released buffer with
	// 0xA5 so that a frame read after its release changes the run.
	poison bool
}

// get returns data copied into a pooled buffer.
func (p *bufPool) get(data []byte) []byte {
	var b []byte
	if n := len(p.free); n > 0 {
		b = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		b = make([]byte, 0, frameBufCap)
	}
	return append(b, data...)
}

// put returns a frame's buffer to the pool. The caller must not touch
// it again.
func (p *bufPool) put(b []byte) {
	if p.poison {
		b = b[:cap(b)]
		for i := range b {
			b[i] = 0xA5
		}
	}
	p.free = append(p.free, b[:0])
}

// putAll releases every buffer in frames and returns frames emptied.
func (p *bufPool) putAll(frames [][]byte) [][]byte {
	for _, b := range frames {
		p.put(b)
	}
	return frames[:0]
}
